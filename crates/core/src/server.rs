//! A parallel multi-disk query/maintenance engine (paper Section 8).
//!
//! The paper closes with the observation that wave indices exploit
//! disk arrays naturally: queries decompose per constituent, so with
//! constituents spread over `k` disks the elapsed time of a
//! `TimedIndexProbe`/`TimedSegmentScan` is the **maximum over disks**
//! of the per-disk work — and "building new constituent indices on
//! separate disks avoids contention" with the query path.
//! [`crate::parallel`] models that analytically; [`WaveServer`]
//! executes it.
//!
//! # Architecture
//!
//! Each arm of a [`DiskArray`] is one shared-nothing unit of state:
//! its [`Volume`] and the [`ConstituentIndex`]es placed there, behind
//! one mutex (the arm's *core*). A slot→arm routing table (an
//! [`ArmMap`] realisation, round-robin or greedy by constituent
//! weight) decides placement.
//!
//! **Reads run on the caller's thread.** A probe, scan or batch visits
//! the arms that own intersecting slots one after another, answering
//! each in place under that arm's core lock, and merges in ascending
//! slot order — so a [`WaveServer`] returns **exactly** the entries a
//! single-threaded [`WaveIndex`](crate::wave::WaveIndex) would, in the
//! same order, while reporting elapsed time as the busiest arm's
//! share. Concurrent readers on different arms still run in parallel;
//! no read crosses a thread or waits on a channel.
//!
//! **Builds run on scoped threads.** The server keeps no thread of
//! its own. A build ([`WaveServer::install_wave`],
//! [`WaveServer::maintain`]) runs on one scoped thread per arm that
//! has builds, under that arm's core lock and off the caller's thread,
//! and every thread is joined before any route changes. Status, the
//! drop of a displaced generation and shutdown run inline under each
//! arm's core lock.
//!
//! # Maintenance
//!
//! [`WaveServer::maintain`] is shadow updating scaled to the array:
//! the replacement constituent is built on a **dedicated maintenance
//! arm** that serves no queries, entirely off the query path. The
//! swap then mirrors the two-phase epoch commit of [`crate::persist`]:
//! phase one builds the full replacement under the next epoch's label
//! (`slot{j}.e{epoch}`, the same naming [`crate::persist::commit_wave`]
//! writes to an [`IndexStore`](wave_storage::IndexStore)); phase two
//! atomically flips the routing table — the only moment queries are
//! excluded, and it is O(1) — after which the displaced constituent is
//! garbage-collected and the arm it lived on becomes the new
//! maintenance arm. With one slot per query arm (the paper's "n
//! matches the number of disks" setup, plus one spare) maintenance
//! never touches an arm a query can reach; with more slots than arms
//! the rotation degrades gracefully to sharing the least-loaded arm.
//!
//! # Fault tolerance
//!
//! Serving survives two fault classes, each with a bounded, typed
//! recovery path (tuned by [`FaultConfig`]); a failed or panicking
//! build fails its install or maintain call with a typed error and
//! changes no route:
//!
//! * **Transient read errors** — each arm's probe/scan/batch reads are
//!   retried under a bounded [`RetryPolicy`], counting
//!   `server.read_retries`; blips shorter than the retry budget are
//!   invisible to callers.
//! * **Persistent arm failure** — a per-arm circuit breaker trips
//!   after consecutive failures and quarantines the arm; queries then
//!   answer from the surviving arms with an explicit
//!   [`PartialAnswer`] naming the missing slots — byte-identical on
//!   covered slots, never silently wrong. After a cooldown, one
//!   half-open probe decides re-admission.
//!
//! The deterministic chaos harness (`wavectl bench chaos`) races both
//! fault classes, and bursts that fail maintenance builds, against
//! concurrent queries and maintenance epochs and checks every
//! completed answer against a single-threaded oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use wave_obs::{fields, Counter, Gauge, Obs, TraceCtx};
use wave_storage::{DiskArray, RetryPolicy, StatsDelta, Volume};

use crate::entry::Entry;
use crate::error::{IndexError, IndexResult};
use crate::filter::MembershipFilter;
use crate::index::{ConstituentIndex, IndexConfig};
use crate::parallel::{ArmMap, PlacementStrategy};
use crate::query::TimeRange;
use crate::read::{self, Read, Retry};
use crate::record::{Day, DayBatch, SearchValue};

/// Server construction options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Constituent-index tuning used for every build.
    pub index: IndexConfig,
    /// How slots are spread over the query arms.
    pub strategy: PlacementStrategy,
    /// Reserve the last arm for maintenance builds (required by
    /// [`WaveServer::maintain`]); query slots then spread over the
    /// remaining arms. Needs an array of at least two arms.
    pub reserve_maintenance_arm: bool,
    /// Fault-tolerance tuning (retry, circuit breaking).
    pub fault: FaultConfig,
}

/// Fault-tolerance tuning for a [`WaveServer`]'s read path: retry
/// and circuit breaking.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Retry policy applied to transient read errors on each arm's
    /// probe/scan/batch serving paths. The default never sleeps
    /// (backoff would only slow the simulation down); production-shaped
    /// deployments can swap in a jittered policy.
    pub retry: RetryPolicy,
    /// Consecutive failed queries on an arm that trip its breaker.
    pub trip_after: u32,
    /// Queries a tripped arm sits out before one half-open probe is
    /// admitted (success heals the arm, failure re-trips it).
    pub cooldown: u32,
    /// Serve partial answers with explicit [`PartialAnswer`] gaps
    /// instead of failing the whole query when an arm is quarantined
    /// or erroring. When `false` the breaker never skips an arm and
    /// every arm failure surfaces as the query's error.
    pub degraded_reads: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            retry: RetryPolicy::no_backoff(4),
            trip_after: 3,
            cooldown: 4,
            degraded_reads: true,
        }
    }
}

/// Explicit coverage gaps of a degraded answer: the slots no arm
/// could serve. Entries for every covered slot are byte-identical to
/// a healthy answer's — a degraded read is never silently wrong, the
/// gap is always caller-visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAnswer {
    /// Slots absent from the answer, ascending.
    pub missing_slots: Vec<usize>,
}

/// The merged outcome of one fanned-out query.
#[derive(Debug)]
pub struct ServerQuery {
    /// Matching entries, in ascending slot order — byte-identical to
    /// a single-threaded [`crate::wave::WaveIndex`] query.
    pub entries: Vec<Entry>,
    /// Constituent indexes accessed across all arms.
    pub indexes_accessed: usize,
    /// Elapsed simulated seconds: the busiest arm's share (the
    /// paper's max-over-disks measure).
    pub elapsed_seconds: f64,
    /// Total device busy time summed over arms (what one disk would
    /// have taken).
    pub serial_seconds: f64,
    /// Per-arm busy seconds for this query, indexed by arm.
    pub per_arm_seconds: Vec<f64>,
    /// `Some` when degraded reads answered without one or more arms:
    /// the listed slots are missing, everything else is exact.
    pub partial: Option<PartialAnswer>,
}

impl From<ServerBatchQuery> for ServerQuery {
    /// A probe or a scan is a fan-out with one column.
    fn from(q: ServerBatchQuery) -> Self {
        ServerQuery {
            entries: q.per_value.into_iter().next().unwrap_or_default(),
            indexes_accessed: q.indexes_accessed,
            elapsed_seconds: q.elapsed_seconds,
            serial_seconds: q.serial_seconds,
            per_arm_seconds: q.per_arm_seconds,
            partial: q.partial,
        }
    }
}

impl ServerQuery {
    /// Serial-over-parallel speedup of this query (1.0 when no arm
    /// did any work).
    pub fn speedup(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.serial_seconds / self.elapsed_seconds
        } else {
            1.0
        }
    }
}

/// The merged outcome of one batched fan-out
/// ([`WaveServer::query_batch`]).
#[derive(Debug)]
pub struct ServerBatchQuery {
    /// Matching entries per queried value (indexed like the submitted
    /// value list), each in ascending slot order — byte-identical to
    /// calling [`WaveServer::probe`] per value.
    pub per_value: Vec<Vec<Entry>>,
    /// Constituent indexes intersecting the range (every value in the
    /// batch touches the same constituents, so one count serves all).
    pub indexes_accessed: usize,
    /// Elapsed simulated seconds: the busiest arm's share.
    pub elapsed_seconds: f64,
    /// Total device busy time summed over arms.
    pub serial_seconds: f64,
    /// Per-arm busy seconds for this batch, indexed by arm.
    pub per_arm_seconds: Vec<f64>,
    /// `Some` when degraded reads answered without one or more arms:
    /// the listed slots are missing from every value's answer,
    /// everything else is exact.
    pub partial: Option<PartialAnswer>,
}

/// What one [`WaveServer::maintain`] call did.
#[derive(Debug)]
pub struct MaintainReport {
    /// Epoch committed by the swap.
    pub epoch: u64,
    /// Arm the replacement was built on (the old maintenance arm).
    pub built_on: usize,
    /// Arm the displaced constituent was released from; it is the new
    /// maintenance arm.
    pub released_from: usize,
    /// Simulated seconds the build charged to the maintenance arm.
    pub build_seconds: f64,
}

/// Per-arm snapshot returned by [`WaveServer::status`].
#[derive(Debug)]
pub struct ArmStatus {
    /// Arm index.
    pub arm: usize,
    /// Slots this arm currently owns, ascending.
    pub slots: Vec<usize>,
    /// Live entries across those slots.
    pub entries: u64,
    /// Blocks allocated on the arm.
    pub live_blocks: u64,
    /// Cumulative simulated busy seconds of the arm.
    pub busy_seconds: f64,
}

/// Simulated seconds to whole microseconds (the unit SLO windows and
/// the flight recorder's promotion threshold use).
fn sim_micros(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// Circuit-breaker states of one arm's serving health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Serving normally.
    Healthy,
    /// Quarantined: queries skip the arm (its slots go missing in
    /// degraded answers) while the cooldown runs down.
    Tripped,
    /// Cooldown expired: the next query is admitted as a probe —
    /// success heals the arm, failure re-trips it.
    HalfOpen,
}

/// Per-arm circuit breaker: `trip_after` consecutive failures
/// quarantine the arm, `cooldown` skipped queries later one half-open
/// probe decides whether it rejoins. State only; the counters that
/// make trips operator-visible live on the server.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    trip_after: u32,
    cooldown: u32,
    consecutive_errors: u32,
    cooldown_left: u32,
}

impl Breaker {
    fn new(trip_after: u32, cooldown: u32) -> Self {
        Breaker {
            state: BreakerState::Healthy,
            trip_after: trip_after.max(1),
            cooldown: cooldown.max(1),
            consecutive_errors: 0,
            cooldown_left: 0,
        }
    }

    /// Whether a query may use the arm; counts down the cooldown of a
    /// tripped arm and admits the half-open probe when it expires.
    fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Healthy | BreakerState::HalfOpen => true,
            BreakerState::Tripped => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&mut self) {
        self.state = BreakerState::Healthy;
        self.consecutive_errors = 0;
    }

    /// Returns `true` when this error tripped the breaker.
    fn record_error(&mut self) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.trip();
                true
            }
            BreakerState::Tripped => false,
            BreakerState::Healthy => {
                self.consecutive_errors += 1;
                if self.consecutive_errors >= self.trip_after {
                    self.trip();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Quarantines the arm immediately (also the operator/chaos hook
    /// behind [`WaveServer::quarantine_arm`]).
    fn trip(&mut self) {
        self.state = BreakerState::Tripped;
        self.cooldown_left = self.cooldown;
        self.consecutive_errors = 0;
    }
}

/// What a query asks of every arm, borrowed from the caller: a probe
/// or a scan of each selected slot, or a batch of probes. A probe and
/// a one-value batch return the same entries but differ in device
/// schedule — the probe reads through the cache, the batch in one
/// bypassing sweep — so they stay distinct operations.
#[derive(Clone, Copy)]
enum ReadOp<'a> {
    Each(Read<'a>),
    Batch(&'a [SearchValue]),
}

impl<'a> ReadOp<'a> {
    /// The probed values; `None` for a scan, which reads everything.
    fn values(self) -> Option<&'a [SearchValue]> {
        match self {
            ReadOp::Each(Read::Probe(value)) => Some(std::slice::from_ref(value)),
            ReadOp::Each(Read::Scan) => None,
            ReadOp::Batch(values) => Some(values),
        }
    }

    /// Name of the per-arm child span.
    fn arm_span(self) -> &'static str {
        match self {
            ReadOp::Each(Read::Probe(_)) => "arm.probe",
            ReadOp::Each(Read::Scan) => "arm.scan",
            ReadOp::Batch(_) => "arm.batch",
        }
    }
}

/// What an arm answers to a read, and the I/O it cost.
struct ArmAnswer {
    answers: Answers,
    io: StatsDelta,
}

/// An arm's answers to one read, each tagged with its slot.
enum Answers {
    /// A probe or a scan: each selected slot's entries.
    Each(Vec<(usize, Vec<Entry>)>),
    /// A batch: the arm's one arena and its `(slot, value)` spans
    /// ([`read::Batch`]); [`read::fold`] writes the per-value answers.
    Batch(read::Batch),
}

impl Answers {
    /// Drops the slots `keep` rejects, with their answers.
    fn retain_slots(&mut self, keep: impl Fn(usize) -> bool) {
        match self {
            Answers::Each(per_slot) => per_slot.retain(|(slot, _)| keep(*slot)),
            Answers::Batch(batch) => batch.retain_slots(keep),
        }
    }

    /// How many slots answered (each one an access).
    fn slots(&self) -> usize {
        match self {
            Answers::Each(per_slot) => per_slot.len(),
            Answers::Batch(batch) => batch.slots().len(),
        }
    }

    /// Lends every `(slot, column, entries)` answer to `out`; a probe
    /// or a scan has the one column 0.
    fn lend<'a>(&'a self, out: &mut Vec<(usize, usize, &'a [Entry])>) {
        match self {
            Answers::Each(per_slot) => out.extend(
                per_slot
                    .iter()
                    .map(|(slot, entries)| (*slot, 0, entries.as_slice())),
            ),
            Answers::Batch(batch) => out.extend(batch.answers()),
        }
    }
}

/// What an arm's build returns: besides the I/O accounting, the
/// built constituent's day span and a copy of its membership filter,
/// which the server installs as the slot's routing metadata
/// ([`SlotMeta`]) for fan-out pruning.
struct BuildDone {
    arm: usize,
    slot: usize,
    io: StatsDelta,
    span: Option<(Day, Day)>,
    filter: Option<MembershipFilter>,
}

/// The builds queued for one arm: `(submission index, slot, day
/// batches)`, in submission order.
type ArmBuilds = Vec<(usize, usize, Vec<DayBatch>)>;

/// Arm state: one arm and its constituents, behind the arm's core
/// mutex. Readers hold it for one arm's answer, a build thread for
/// its arm's builds, and status, drop, shutdown and the chaos/fault
/// hooks for one call.
struct ArmState {
    arm: usize,
    cfg: IndexConfig,
    vol: Volume,
    slots: BTreeMap<usize, ConstituentIndex>,
    /// Bounded retry applied to transient read errors on the serving
    /// paths (probe/scan/batch), so an injected or environmental blip
    /// never surfaces when riding it out suffices.
    retry: RetryPolicy,
    /// `server.read_retries`: transient read errors retried away.
    retries: Counter,
}

impl ArmState {
    /// Runs one request body under a per-arm child span of the
    /// server-side root `ctx`, so every arm-side event carries the
    /// request's `trace_id` and a `parent_id` naming the fan-out span.
    /// The span's end fields report the arm's simulated busy time
    /// (`latency_us`) on success or the typed error on failure — the
    /// signals tail-based flight-recorder retention keys on.
    fn traced<T>(
        &mut self,
        ctx: TraceCtx,
        name: &str,
        f: impl FnOnce(&mut Self, TraceCtx) -> IndexResult<T>,
    ) -> IndexResult<T> {
        let obs = self.vol.obs().clone();
        let before = self.vol.stats();
        let mut span = obs.child_span(ctx, name, fields![("arm", self.arm as u64)]);
        let result = f(self, span.ctx());
        match &result {
            Ok(_) => {
                let busy = self.vol.stats().since(&before).sim_seconds;
                span.set_end_field("latency_us", sim_micros(busy));
            }
            Err(e) => {
                // The arm repeats as an end field so a `span_end`
                // line is self-contained: `wavectl report` attributes
                // failures per arm without re-joining span begins.
                span.set_end_field("arm", self.arm as u64);
                span.set_end_field("error", e.to_string());
            }
        }
        result
    }

    /// Answers one read over the slots this arm owns, through the
    /// crate's one read path ([`read`]): a batch takes at most one
    /// scheduled I/O sweep of the arm under `ctx`, a probe or a scan
    /// reads constituent by constituent. Transient device errors are
    /// retried under the arm's policy.
    fn answer(
        &mut self,
        what: ReadOp<'_>,
        range: TimeRange,
        ctx: TraceCtx,
    ) -> IndexResult<ArmAnswer> {
        let retry = Some((&self.retry, &self.retries));
        let vol = &mut self.vol;
        let before = vol.stats();
        let selected = read::select(self.slots.iter().map(|(&slot, idx)| (slot, idx)), range);
        let answers = match what {
            ReadOp::Batch(values) => {
                Answers::Batch(read::read_batch(selected, vol, values, range, ctx, retry)?)
            }
            ReadOp::Each(read) => Answers::Each(one_by_one(selected, vol, read, range, retry)?),
        };
        Ok(ArmAnswer {
            answers,
            io: vol.stats().since(&before),
        })
    }

    /// Builds `slot`'s constituent under `label` and places it on the
    /// arm. Rebuilding a slot in place on the same arm releases the old
    /// generation once the new one is installed.
    fn build(
        &mut self,
        slot: usize,
        label: String,
        batches: Vec<DayBatch>,
    ) -> IndexResult<BuildDone> {
        let before = self.vol.stats();
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(label, self.cfg, &mut self.vol, &refs)?;
        let span = idx.day_span();
        let filter = idx.membership_filter().cloned();
        if let Some(old) = self.slots.insert(slot, idx) {
            old.release(&mut self.vol)?;
        }
        Ok(BuildDone {
            arm: self.arm,
            slot,
            io: self.vol.stats().since(&before),
            span,
            filter,
        })
    }

    /// Releases `slot`'s constituent, if the arm holds one.
    fn drop_slot(&mut self, slot: usize) -> IndexResult<()> {
        match self.slots.remove(&slot) {
            Some(idx) => idx.release(&mut self.vol),
            None => Ok(()),
        }
    }

    /// Releases every constituent; returns the blocks still live.
    fn drain(&mut self) -> IndexResult<u64> {
        let mut result = Ok(());
        for (_, idx) in std::mem::take(&mut self.slots) {
            if let Err(e) = idx.release(&mut self.vol) {
                result = Err(e);
            }
        }
        result.map(|()| self.vol.live_blocks())
    }
}

/// A probe or a scan of the selected slots, constituent by
/// constituent.
fn one_by_one<'a>(
    selected: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    vol: &mut Volume,
    what: Read<'_>,
    range: TimeRange,
    retry: Retry<'_>,
) -> IndexResult<Vec<(usize, Vec<Entry>)>> {
    selected
        .map(|(slot, idx)| Ok((slot, read::read_slot(idx, vol, what, range, retry)?)))
        .collect()
}

/// Per-arm handles the server side keeps: the arm's state behind its
/// core lock, its circuit breaker, and its observability instruments.
struct ArmLink {
    arm: usize,
    core: Mutex<ArmState>,
    breaker: Mutex<Breaker>,
    /// In-flight requests (server-side view), mirrored into `depth`.
    pending: AtomicI64,
    depth: Gauge,
    requests: Counter,
    seeks: Counter,
    blocks_read: Counter,
    blocks_written: Counter,
    /// Cumulative busy time in microseconds (counter-friendly unit).
    busy_us: Counter,
}

impl ArmLink {
    fn lock_breaker(&self) -> MutexGuard<'_, Breaker> {
        self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the arm's state. A poisoned lock is recovered: every
    /// change to the state is whole at request granularity, and
    /// refusing to serve would turn one panicked build into a
    /// permanently dead arm.
    fn lock_core(&self) -> MutexGuard<'_, ArmState> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enters one request into flight: bumps `requests` and the
    /// pending gauge. The caller owes exactly one [`ArmLink::settle`]
    /// or [`ArmLink::settle_err`].
    fn enter(&self) {
        self.requests.inc();
        self.depth
            .set((self.pending.fetch_add(1, Ordering::Relaxed) + 1) as f64);
    }

    /// Books the I/O of one completed request and balances `pending`.
    fn settle(&self, io: &StatsDelta) {
        self.depth
            .set((self.pending.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
        self.seeks.add(io.seeks);
        self.blocks_read.add(io.blocks_read);
        self.blocks_written.add(io.blocks_written);
        self.busy_us.add((io.sim_seconds * 1e6) as u64);
    }

    /// Balances `pending` for a request that produced no I/O report
    /// (its build thread could not be spawned or panicked). Every
    /// entered request is settled exactly once, by this or by
    /// [`ArmLink::settle`], so the queue-depth gauge cannot drift
    /// under faults.
    fn settle_err(&self) {
        self.depth
            .set((self.pending.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
    }

    /// Runs one status, drop or shutdown request inline under the
    /// arm's core lock, entered and settled like any request (with no
    /// I/O booked, as these requests report none).
    fn inline<T>(&self, f: impl FnOnce(&mut ArmState) -> T) -> T {
        self.enter();
        let out = f(&mut self.lock_core());
        self.settle(&StatsDelta::default());
        out
    }
}

/// Server-side summary of one routed slot, captured from the arm that
/// built its constituent: the day span plus a copy of the membership
/// filter. The fan-out consults it *before* reading an arm, so an arm
/// none of whose slots can match a probe is never locked or read.
struct SlotMeta {
    span: Option<(Day, Day)>,
    filter: Option<MembershipFilter>,
}

/// Routing state guarded by one `RwLock`: readers hold it for the
/// duration of a query (so they see one consistent placement
/// generation, as [`crate::concurrent::SharedWave`] promises) and take
/// one arm's core lock at a time beneath it; maintenance takes it
/// exclusively only for the O(1) flip, holding no core lock then, and
/// build threads never take it — so the route → core order has no
/// cycle.
/// The flip also installs the new generation's [`SlotMeta`].
struct Route {
    arm_of: BTreeMap<usize, usize>,
    maintenance: Option<usize>,
    /// Pruning metadata per routed slot, updated atomically with
    /// `arm_of` under the same write lock. A slot without metadata is
    /// simply never elided — correctness does not depend on this map.
    slot_meta: BTreeMap<usize, SlotMeta>,
}

/// A parallel wave-index server over a shared-nothing disk array.
///
/// See the [module docs](self) for the architecture. All query
/// methods take `&self`, so a server wrapped in an
/// [`Arc`](std::sync::Arc) serves any number of reader threads while
/// one maintenance thread commits epochs.
///
/// ```
/// use wave_index::server::{ServerConfig, WaveServer};
/// use wave_index::{Day, DayBatch, Record, RecordId, SearchValue, TimeRange};
/// use wave_storage::{DiskArray, DiskConfig};
///
/// let server = WaveServer::launch(
///     DiskArray::new(DiskConfig::default(), 2),
///     ServerConfig::default(),
///     wave_obs::Obs::noop(),
/// )
/// .unwrap();
/// let day = |d: u32| {
///     vec![DayBatch::new(
///         Day(d),
///         vec![Record::with_values(RecordId(d as u64), [SearchValue::from("war")])],
///     )]
/// };
/// server.install_wave(vec![day(1), day(2)]).unwrap();
/// let q = server.probe(&SearchValue::from("war"), TimeRange::all()).unwrap();
/// assert_eq!(q.entries.len(), 2);
/// assert_eq!(q.indexes_accessed, 2);
/// server.shutdown().unwrap();
/// ```
pub struct WaveServer {
    arms: Vec<ArmLink>,
    route: RwLock<Route>,
    epoch: AtomicU64,
    cfg: ServerConfig,
    obs: Obs,
    queries: Counter,
    /// `filter.checks`, `filter.skips` and `filter.arm_elisions`, as
    /// moved by an elided arm.
    filter_checks: Counter,
    filter_skips: Counter,
    arm_elisions: Counter,
    /// `server.degraded_queries`: answers served with explicit gaps.
    degraded: Counter,
    /// `server.breaker_trips`: arms quarantined by their breaker.
    breaker_trips: Counter,
}

impl WaveServer {
    /// Launches a server over the arms of `array`. It starts no
    /// thread: reads run on the caller's thread and builds on scoped
    /// threads of the call that asks for them.
    ///
    /// # Errors
    /// [`IndexError::BadConfig`] if `cfg.reserve_maintenance_arm` is
    /// set on a one-arm array.
    pub fn launch(array: DiskArray, cfg: ServerConfig, obs: Obs) -> IndexResult<Self> {
        let arm_count = array.arm_count();
        if cfg.reserve_maintenance_arm && arm_count < 2 {
            return Err(IndexError::BadConfig {
                window: 0,
                fan: arm_count as u32,
                reason: "a maintenance arm needs an array of at least two arms",
            });
        }
        let mut arms = Vec::with_capacity(arm_count);
        for (i, mut vol) in array.into_arms().into_iter().enumerate() {
            // Arms report through the server's handle: their child
            // spans join the request traces and their disk/sched
            // metrics aggregate into the one registry operators read.
            vol.attach_obs(obs.clone());
            arms.push(ArmLink {
                arm: i,
                core: Mutex::new(ArmState {
                    arm: i,
                    cfg: cfg.index,
                    vol,
                    slots: BTreeMap::new(),
                    retry: cfg.fault.retry,
                    retries: obs.counter("server.read_retries"),
                }),
                breaker: Mutex::new(Breaker::new(cfg.fault.trip_after, cfg.fault.cooldown)),
                pending: AtomicI64::new(0),
                depth: obs.gauge(&format!("server.arm{i}.queue_depth")),
                requests: obs.counter(&format!("server.arm{i}.requests")),
                seeks: obs.counter(&format!("server.arm{i}.seeks")),
                blocks_read: obs.counter(&format!("server.arm{i}.blocks_read")),
                blocks_written: obs.counter(&format!("server.arm{i}.blocks_written")),
                busy_us: obs.counter(&format!("server.arm{i}.busy_us")),
            });
        }
        Ok(WaveServer {
            arms,
            route: RwLock::new(Route {
                arm_of: BTreeMap::new(),
                maintenance: cfg
                    .reserve_maintenance_arm
                    .then_some(arm_count.saturating_sub(1)),
                slot_meta: BTreeMap::new(),
            }),
            epoch: AtomicU64::new(0),
            cfg,
            queries: obs.counter("server.queries"),
            filter_checks: obs.counter("filter.checks"),
            filter_skips: obs.counter("filter.skips"),
            arm_elisions: obs.counter("filter.arm_elisions"),
            degraded: obs.counter("server.degraded_queries"),
            breaker_trips: obs.counter("server.breaker_trips"),
            obs,
        })
    }

    /// Takes the routing table read lock, surfacing poisoning (a
    /// maintenance thread panicked mid-flip) as a typed error rather
    /// than panicking on the serving path.
    fn route_read(&self) -> IndexResult<RwLockReadGuard<'_, Route>> {
        self.route
            .read()
            .map_err(|_| IndexError::LockPoisoned("server route table"))
    }

    fn route_write(&self) -> IndexResult<RwLockWriteGuard<'_, Route>> {
        self.route
            .write()
            .map_err(|_| IndexError::LockPoisoned("server route table"))
    }

    /// The [`ArmLink`] for `arm`, or a typed error when a routing
    /// entry points at an arm the array does not have (an invariant
    /// breach that must not become a slice panic mid-query).
    fn arm(&self, arm: usize) -> IndexResult<&ArmLink> {
        self.arms
            .get(arm)
            .ok_or_else(|| IndexError::Corrupt(format!("routed to unknown arm {arm}")))
    }

    /// Number of arms (including any maintenance arm).
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// Epoch of the current placement generation; bumped by every
    /// [`WaveServer::maintain`] swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Arm currently owning `slot`, if the slot is installed.
    ///
    /// Read-only introspection stays available even if a panicking
    /// thread poisoned the route lock: the table is a plain map whose
    /// entries are each flipped atomically, so a poisoned snapshot is
    /// still well-formed and more useful to an operator than a panic.
    pub fn arm_of(&self, slot: usize) -> Option<usize> {
        self.route
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .arm_of
            .get(&slot)
            .copied()
    }

    /// The dedicated maintenance arm, if one was reserved.
    pub fn maintenance_arm(&self) -> Option<usize> {
        self.route
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .maintenance
    }

    /// Whether a query may use `link`'s arm right now. Only consulted
    /// when degraded reads are enabled: without them, skipping an arm
    /// would silently drop its slots, so every arm is always admitted
    /// and failures surface as errors instead.
    fn admit(&self, link: &ArmLink) -> bool {
        if !self.cfg.fault.degraded_reads {
            return true;
        }
        link.lock_breaker().admit()
    }

    /// Books one failed arm into a fanned-out query: records the
    /// error on the arm's breaker, then either marks the arm's slots
    /// missing (degraded reads) or keeps the first error for the
    /// whole query.
    fn absorb_arm_failure(
        &self,
        link: &ArmLink,
        e: IndexError,
        missing_arms: &mut Vec<usize>,
        first_err: &mut Option<IndexError>,
    ) {
        if link.lock_breaker().record_error() {
            self.breaker_trips.inc();
        }
        if self.cfg.fault.degraded_reads {
            missing_arms.push(link.arm);
        } else if first_err.is_none() {
            *first_err = Some(e);
        }
    }

    /// Publishes a degraded answer: bumps `server.degraded_queries`
    /// and mints a root-spanned incident trace naming the operation,
    /// the originating query's trace and the uncovered slot count,
    /// with an `error` end field so flight recorders promote it.
    fn degraded_query(&self, op: &'static str, query_trace: u64, partial: &PartialAnswer) {
        self.degraded.inc();
        let mut span = self.obs.root_span(
            "server.degraded_query",
            fields![
                ("op", op),
                ("query_trace", query_trace),
                ("missing_slots", partial.missing_slots.len() as u64)
            ],
        );
        span.set_end_field(
            "error",
            format!(
                "degraded answer: {} slot(s) uncovered",
                partial.missing_slots.len()
            ),
        );
    }

    /// Chaos hook: arms a transient fault burst on `arm`'s volume —
    /// after `after` further device operations (reads or writes), the
    /// next `count` fail with a retryable transient error. Exercises
    /// the serving-path retry, the circuit breaker when the burst
    /// outlasts the retry budget, and a failed build when it lands in
    /// one.
    pub fn inject_transient_reads(&self, arm: usize, after: u64, count: u64) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_core().vol.inject_transient_after(after, count);
        Ok(())
    }

    /// Chaos hook: disarms any fault plans on `arm`'s volume.
    pub fn clear_arm_faults(&self, arm: usize) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_core().vol.clear_fault();
        Ok(())
    }

    /// Operator/chaos hook: trips `arm`'s circuit breaker
    /// immediately. Queries skip the arm (its slots appear in
    /// [`PartialAnswer::missing_slots`]) until the cooldown expires
    /// and a half-open probe succeeds.
    pub fn quarantine_arm(&self, arm: usize) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_breaker().trip();
        self.breaker_trips.inc();
        Ok(())
    }

    /// Builds and installs a whole wave: `slot_batches[j]` holds the
    /// day batches of slot `j`. Slots are placed over the query arms
    /// by the configured [`PlacementStrategy`] (greedy weighs slots
    /// by entry count) and built **concurrently**, one build per arm
    /// at a time. Returns the build elapsed time — the busiest arm's
    /// share, the parallel-build advantage of Section 8. A failed
    /// build fails the install, which then routes no slot.
    pub fn install_wave(&self, slot_batches: Vec<Vec<DayBatch>>) -> IndexResult<f64> {
        let route = self.route_read()?;
        let query_arms = self.query_arms(&route);
        drop(route);
        let weights: Vec<u64> = slot_batches
            .iter()
            .map(|b| b.iter().map(|d| d.entry_count() as u64).sum())
            .collect();
        let map = ArmMap::build(self.cfg.strategy, &weights, query_arms.len());
        let mut span = self.obs.root_span(
            "server.install",
            fields![
                ("slots", slot_batches.len() as u64),
                ("arms", query_arms.len() as u64)
            ],
        );
        let ctx = span.ctx();
        let result = (|| -> IndexResult<f64> {
            let mut placements = BTreeMap::new();
            let mut builds = Vec::new();
            for (slot, batches) in slot_batches.into_iter().enumerate() {
                let arm = *query_arms.get(map.arm_of(slot)).ok_or_else(|| {
                    IndexError::Corrupt(format!("placement mapped slot {slot} past the query arms"))
                })?;
                placements.insert(slot, arm);
                builds.push((slot, self.arm(arm)?, batches));
            }
            let mut per_arm = vec![0.0f64; self.arms.len()];
            let mut metas: Vec<(usize, SlotMeta)> = Vec::new();
            let mut first_err: Option<IndexError> = None;
            for built in self.build_on_arms(self.epoch(), ctx, builds) {
                match built {
                    Ok(done) => {
                        if let Some(s) = per_arm.get_mut(done.arm) {
                            *s += done.io.sim_seconds;
                        }
                        let meta = SlotMeta {
                            span: done.span,
                            filter: done.filter,
                        };
                        metas.push((done.slot, meta));
                    }
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            span.event(
                "server.install.done",
                fields![("builds", metas.len() as u64)],
            );
            if let Some(e) = first_err {
                return Err(e);
            }
            let mut route = self.route_write()?;
            route.arm_of.extend(placements.iter());
            route.slot_meta.extend(metas);
            drop(route);
            Ok(per_arm.iter().fold(0.0, |a, &b| a.max(b)))
        })();
        match &result {
            Ok(elapsed) => {
                let us = sim_micros(*elapsed);
                // "build_us", not "latency_us": installs are bulk
                // admin work, expected to dwarf any query-latency
                // promotion threshold. Keying the flight recorder off
                // "latency_us" only keeps every install from crowding
                // slow *queries* out of the promoted ring; installs
                // still promote on error.
                span.set_end_field("build_us", us);
                self.obs
                    .slo()
                    .record("server.install", None, us, ctx.trace_id);
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
        result
    }

    /// The one seam for builds, behind [`WaveServer::install_wave`]
    /// and [`WaveServer::maintain`]: runs each `(slot, arm, batches)`
    /// build under `epoch`'s label (`slot{j}.e{epoch}`), one scoped
    /// thread per arm that has builds. Each thread takes its arm's
    /// core lock and runs that arm's builds in submission order, each
    /// under an `arm.build` child span of `ctx`. Every thread is joined
    /// before this returns, so callers change routes only after all
    /// builds finished. Each build is entered before the threads start
    /// and settled once after the join. Results come back in
    /// submission order; a build whose thread could not be spawned or
    /// panicked is [`IndexError::WorkerLost`].
    fn build_on_arms(
        &self,
        epoch: u64,
        ctx: TraceCtx,
        builds: Vec<(usize, &ArmLink, Vec<DayBatch>)>,
    ) -> Vec<IndexResult<BuildDone>> {
        let mut per_arm: BTreeMap<usize, (&ArmLink, ArmBuilds)> = BTreeMap::new();
        for (i, (slot, link, batches)) in builds.into_iter().enumerate() {
            link.enter();
            per_arm
                .entry(link.arm)
                .or_insert_with(|| (link, Vec::new()))
                .1
                .push((i, slot, batches));
        }
        let mut results: Vec<(usize, IndexResult<BuildDone>)> = Vec::new();
        std::thread::scope(|scope| {
            let threads: Vec<_> = per_arm
                .into_values()
                .map(|(link, jobs)| {
                    let order: Vec<usize> = jobs.iter().map(|&(i, _, _)| i).collect();
                    let thread = std::thread::Builder::new()
                        .name(format!("wave-build-{}", link.arm))
                        .spawn_scoped(scope, move || {
                            let mut core = link.lock_core();
                            jobs.into_iter()
                                .map(|(_, slot, batches)| {
                                    let label = format!("slot{slot}.e{epoch}");
                                    core.traced(ctx, "arm.build", |s, _| {
                                        s.build(slot, label, batches)
                                    })
                                })
                                .collect::<Vec<_>>()
                        });
                    (link, order, thread)
                })
                .collect();
            for (link, order, thread) in threads {
                let (what, outcomes) = match thread {
                    Ok(t) => ("arm build thread panicked", t.join().ok()),
                    Err(_) => ("OS refused to spawn an arm build thread", None),
                };
                let Some(outcomes) = outcomes else {
                    for i in order {
                        link.settle_err();
                        let arm = link.arm;
                        let lost = IndexError::WorkerLost {
                            what,
                            arm,
                            epoch: self.epoch(),
                        };
                        results.push((i, Err(lost)));
                    }
                    continue;
                };
                for (i, built) in order.into_iter().zip(outcomes) {
                    match &built {
                        Ok(done) => link.settle(&done.io),
                        Err(_) => link.settle(&StatsDelta::default()),
                    }
                    results.push((i, built));
                }
            }
        });
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, built)| built).collect()
    }

    /// Decides whether `arm` needs no request for a probe of `values`:
    /// it can be elided when every slot routed to it is empty, outside
    /// `range`, or — per its [`SlotMeta`] filter — provably holds none
    /// of the values. Returns the range-intersecting slots whose
    /// access the caller must reconstruct (an un-elided arm would have
    /// reported each with empty entries), or `None` if the arm must be
    /// read. A slot without metadata or filter forces the read —
    /// elision is an optimisation, never a guess.
    fn elide_arm(
        &self,
        route: &Route,
        arm: usize,
        values: &[SearchValue],
        range: TimeRange,
    ) -> Option<Vec<usize>> {
        let mut reconstructed = Vec::new();
        for (&slot, &slot_arm) in &route.arm_of {
            if slot_arm != arm {
                continue;
            }
            let meta = route.slot_meta.get(&slot)?;
            let Some((lo, hi)) = meta.span else {
                continue; // empty constituent: the arm would skip it too
            };
            if !range.intersects_span(lo, hi) {
                continue;
            }
            let filter = meta.filter.as_ref()?;
            if values.iter().any(|v| filter.may_contain(v)) {
                return None;
            }
            reconstructed.push(slot);
        }
        // Count only on a successful elision: an arm that is read
        // re-checks its own filters and counts there, so every
        // consulted (slot, value) pair is counted exactly once.
        let pairs = (reconstructed.len() * values.len()) as u64;
        self.filter_checks.add(pairs);
        self.filter_skips.add(pairs);
        self.arm_elisions.inc();
        Some(reconstructed)
    }

    /// Which arms serve queries (all arms minus the maintenance arm).
    fn query_arms(&self, route: &Route) -> Vec<usize> {
        (0..self.arms.len())
            .filter(|a| Some(*a) != route.maintenance)
            .collect()
    }

    /// `TimedIndexProbe` fanned out over the owning arms.
    pub fn probe(&self, value: &SearchValue, range: TimeRange) -> IndexResult<ServerQuery> {
        self.gather(ReadOp::Each(Read::Probe(value)), range)
            .map(ServerQuery::from)
    }

    /// `TimedSegmentScan` fanned out over the owning arms.
    pub fn scan(&self, range: TimeRange) -> IndexResult<ServerQuery> {
        self.gather(ReadOp::Each(Read::Scan), range)
            .map(ServerQuery::from)
    }

    /// A batch of `TimedIndexProbe`s over one range, fanned out with
    /// **one scheduled I/O pass per arm**: each arm resolves every
    /// `(slot, value)` bucket through its in-memory directories and
    /// hands all the reads to the I/O scheduler together, so adjacent
    /// buckets merge and each head sweeps its arm once. Per-value
    /// answers are byte-identical to calling [`WaveServer::probe`] per
    /// value — only the device schedule (and therefore the simulated
    /// cost) differs.
    pub fn query_batch(
        &self,
        values: &[SearchValue],
        range: TimeRange,
    ) -> IndexResult<ServerBatchQuery> {
        if values.is_empty() {
            return Ok(ServerBatchQuery {
                per_value: Vec::new(),
                indexes_accessed: 0,
                elapsed_seconds: 0.0,
                serial_seconds: 0.0,
                per_arm_seconds: vec![0.0; self.arms.len()],
                partial: None,
            });
        }
        self.gather(ReadOp::Batch(values), range)
    }

    /// The one fan-out behind [`WaveServer::probe`], [`WaveServer::scan`]
    /// and [`WaveServer::query_batch`]: admit → elide → read each arm →
    /// route-snapshot filter → missing slots → fold in slot order. The
    /// answer has one column per queried value (a single column for a
    /// probe or a scan).
    fn gather(&self, what: ReadOp<'_>, range: TimeRange) -> IndexResult<ServerBatchQuery> {
        // Readers hold the route lock for the whole query: one
        // consistent generation, maintenance flips wait for us.
        let route = self.route_read()?;
        self.queries.inc();
        let target_arms: BTreeSet<usize> = route.arm_of.values().copied().collect();
        let fanout = target_arms.len() as u64;
        // "op" not "kind": the JSONL envelope already uses "kind" for
        // the event kind.
        let (op, done, mut span) = match what {
            ReadOp::Batch(values) => (
                "server.query_batch",
                "server.query_batch.done",
                self.obs.root_span(
                    "server.query_batch",
                    fields![("values", values.len() as u64), ("fanout", fanout)],
                ),
            ),
            ReadOp::Each(read) => {
                let kind = if matches!(read, Read::Scan) {
                    "scan"
                } else {
                    "probe"
                };
                (
                    "server.query",
                    "server.query.done",
                    self.obs
                        .root_span("server.query", fields![("op", kind), ("fanout", fanout)]),
                )
            }
        };
        let ctx = span.ctx();
        let result = (|| -> IndexResult<ServerBatchQuery> {
            // Every admitted arm is answered in place, one after
            // another, under its core lock; arms the breaker holds in
            // quarantine are skipped up front and reported as missing
            // slots. An arm whose routing metadata proves that no
            // probed value can match any of its slots is not read at
            // all — its (empty) contribution is reconstructed here, so
            // the answer stays byte-identical; one possible hit
            // anywhere reads the whole arm. The breaker is consulted
            // first so elision never changes quarantine/cooldown
            // pacing.
            let mut missing_arms: Vec<usize> = Vec::new();
            let mut first_err: Option<IndexError> = None;
            let mut answered: Vec<Answers> = Vec::new();
            let mut accessed = 0;
            let mut per_arm_seconds = vec![0.0f64; self.arms.len()];
            for &arm in &target_arms {
                let link = self.arm(arm)?;
                if !self.admit(link) {
                    missing_arms.push(arm);
                    continue;
                }
                let elided = what
                    .values()
                    .and_then(|values| self.elide_arm(&route, arm, values, range));
                if let Some(slots) = elided {
                    // A read arm would have answered each intersecting
                    // slot with nothing: only the accesses remain.
                    accessed += slots.len();
                    continue;
                }
                link.enter();
                // The core guard is a temporary of this statement: the
                // arm is unlocked before its breaker is touched.
                let answer = link.lock_core().traced(ctx, what.arm_span(), |s, arm_ctx| {
                    s.answer(what, range, arm_ctx)
                });
                match answer {
                    Ok(mut answer) => {
                        link.settle(&answer.io);
                        link.lock_breaker().record_success();
                        if let Some(s) = per_arm_seconds.get_mut(arm) {
                            *s = answer.io.sim_seconds;
                        }
                        // During a maintenance hand-over two arms briefly
                        // hold a generation of the same slot — the new
                        // one just routed in, the displaced one awaiting
                        // its Drop. The route snapshot held across this
                        // query decides whose answer counts, so readers
                        // never see a slot twice.
                        answer
                            .answers
                            .retain_slots(|slot| route.arm_of.get(&slot) == Some(&arm));
                        accessed += answer.answers.slots();
                        answered.push(answer.answers);
                    }
                    Err(e) => {
                        // A typed read error, e.g. a transient burst
                        // outlasting the retry budget.
                        link.settle(&StatsDelta::default());
                        self.absorb_arm_failure(link, e, &mut missing_arms, &mut first_err);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            let missing_slots: Vec<usize> = route
                .arm_of
                .iter()
                .filter(|(_, a)| missing_arms.contains(a))
                .map(|(s, _)| *s)
                .collect();
            drop(route);
            // Fold in ascending slot order: byte-identical to the
            // single-threaded WaveIndex iteration. The stable sort
            // keeps each slot's answers in column order.
            let mut lent: Vec<(usize, usize, &[Entry])> = Vec::new();
            for answers in &answered {
                answers.lend(&mut lent);
            }
            lent.sort_by_key(|&(slot, _, _)| slot);
            let firsts = match what {
                ReadOp::Batch(values) => read::firsts(values),
                ReadOp::Each(_) => vec![0],
            };
            let per_value = read::fold(&firsts, lent.iter().map(|&(_, c, entries)| (c, entries)));
            let elapsed = per_arm_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
            let serial = per_arm_seconds.iter().sum();
            let partial = (!missing_slots.is_empty()).then_some(PartialAnswer { missing_slots });
            if let Some(p) = &partial {
                self.degraded_query(op, ctx.trace_id, p);
            }
            span.event(
                done,
                fields![("accessed", accessed as u64), ("elapsed_s", elapsed)],
            );
            Ok(ServerBatchQuery {
                per_value,
                indexes_accessed: accessed,
                elapsed_seconds: elapsed,
                serial_seconds: serial,
                per_arm_seconds,
                partial,
            })
        })();
        self.finish_query(&mut span, op, &result);
        result
    }

    /// Root-span epilogue of [`WaveServer::gather`]: stamps
    /// `latency_us`/`error` end fields (flight-recorder retention
    /// signals) and records the windowed SLO observations — one
    /// aggregate row per operation plus one per arm that did work,
    /// each carrying the request's trace id as the exemplar.
    fn finish_query(
        &self,
        span: &mut wave_obs::Span,
        op: &str,
        result: &IndexResult<ServerBatchQuery>,
    ) {
        match result {
            Ok(q) => {
                let trace_id = span.ctx().trace_id;
                let us = sim_micros(q.elapsed_seconds);
                span.set_end_field("latency_us", us);
                let slo = self.obs.slo();
                slo.record(op, None, us, trace_id);
                for (arm, s) in q.per_arm_seconds.iter().enumerate() {
                    if *s > 0.0 {
                        slo.record(op, Some(arm as u64), sim_micros(*s), trace_id);
                    }
                }
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
    }

    /// Shadow-rebuilds `slot` from `batches` on the dedicated
    /// maintenance arm, then commits the next epoch: an O(1) routing
    /// flip moves the slot to the maintenance arm, the displaced
    /// constituent is released, and its arm becomes the new
    /// maintenance arm. Queries proceed untouched throughout the
    /// build; only the flip excludes them, momentarily. A failed build
    /// returns its error and commits nothing.
    ///
    /// Requires [`ServerConfig::reserve_maintenance_arm`] and an
    /// already-installed `slot`.
    pub fn maintain(&self, slot: usize, batches: Vec<DayBatch>) -> IndexResult<MaintainReport> {
        let epoch = self.epoch() + 1;
        // The root span opens before any validation: a rejected
        // maintain must leave an error-promoted trace behind, not
        // vanish before the recorder sees it.
        let mut span = self.obs.root_span(
            "server.maintain",
            fields![("slot", slot as u64), ("epoch", epoch)],
        );
        let ctx = span.ctx();
        let result = (|| -> IndexResult<MaintainReport> {
            let (build_arm, old_arm) = {
                let route = self.route_read()?;
                let build_arm = route.maintenance.ok_or_else(|| {
                    IndexError::Corrupt("maintain needs a reserved maintenance arm".into())
                })?;
                let old_arm = *route.arm_of.get(&slot).ok_or_else(|| {
                    IndexError::Corrupt(format!("maintain of uninstalled slot {slot}"))
                })?;
                (build_arm, old_arm)
            };
            span.event(
                "server.maintain.routed",
                fields![("build_arm", build_arm as u64), ("old_arm", old_arm as u64)],
            );
            // Phase 1 (off the query path): build the replacement fully
            // on the maintenance arm, under the next epoch's label.
            let link = self.arm(build_arm)?;
            let done = self
                .build_on_arms(epoch, ctx, vec![(slot, link, batches)])
                .pop()
                .ok_or_else(|| {
                    IndexError::Corrupt("maintenance build returned nothing".into())
                })??;
            // Phase 2: the O(1) commit. Waits for in-flight queries, then
            // flips the route (and the slot's pruning metadata, in the
            // same critical section); new queries route to the new
            // generation.
            {
                let mut route = self.route_write()?;
                route.arm_of.insert(slot, build_arm);
                route.slot_meta.insert(
                    slot,
                    SlotMeta {
                        span: done.span,
                        filter: done.filter,
                    },
                );
                route.maintenance = Some(old_arm);
                self.epoch.store(epoch, Ordering::Release);
            }
            // Garbage-collect the displaced generation. No query can
            // reach it: the flip already routed the slot away. When the
            // slot already lived on the maintenance arm (more slots than
            // query arms), the build replaced it in place and released
            // the old generation itself; a drop would delete the new one.
            if old_arm != build_arm {
                self.arm(old_arm)?.inline(|core| core.drop_slot(slot))?;
            }
            span.event("server.maintain.done", fields![("epoch", epoch)]);
            Ok(MaintainReport {
                epoch,
                built_on: build_arm,
                released_from: old_arm,
                build_seconds: done.io.sim_seconds,
            })
        })();
        match &result {
            Ok(report) => {
                let us = sim_micros(report.build_seconds);
                // "build_us" for the same reason as install: a
                // maintenance rebuild is expected-slow admin work and
                // must not crowd slow queries out of the promoted
                // ring. Errors still promote.
                span.set_end_field("build_us", us);
                self.obs
                    .slo()
                    .record("server.maintain", None, us, ctx.trace_id);
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
        result
    }

    /// Per-arm snapshots (slots owned, entries, blocks, busy time).
    pub fn status(&self) -> IndexResult<Vec<ArmStatus>> {
        let status = |core: &mut ArmState| ArmStatus {
            arm: core.arm,
            slots: core.slots.keys().copied().collect(),
            entries: core.slots.values().map(ConstituentIndex::entry_count).sum(),
            live_blocks: core.vol.live_blocks(),
            busy_seconds: core.vol.stats().sim_seconds,
        };
        Ok(self.arms.iter().map(|link| link.inline(status)).collect())
    }

    /// Releases every constituent on every arm and verifies no arm
    /// leaked blocks.
    pub fn shutdown(self) -> IndexResult<()> {
        let mut first_err = None;
        let mut leaked = 0u64;
        for link in &self.arms {
            match link.inline(ArmState::drain) {
                Ok(live) => leaked += live,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if leaked > 0 {
            return Err(IndexError::Corrupt(format!(
                "server shutdown leaked {leaked} blocks"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ProbeOutcome;
    use crate::record::{Day, Record, RecordId};
    use crate::wave::{QueryResult, WaveIndex};
    use wave_storage::{DiskConfig, IoScheduler, ReadRequest};

    fn day_batch(day: u32, records: u64, word: &str) -> DayBatch {
        DayBatch::new(
            Day(day),
            (0..records)
                .map(|i| {
                    Record::with_values(
                        RecordId(day as u64 * 1_000 + i),
                        [SearchValue::from(word), SearchValue::from_u64(i % 7)],
                    )
                })
                .collect(),
        )
    }

    fn slot_batches(slots: usize, records: u64) -> Vec<Vec<DayBatch>> {
        (0..slots)
            .map(|j| vec![day_batch(j as u32 + 1, records, "k")])
            .collect()
    }

    /// Single-threaded oracle over one volume with the same contents.
    fn oracle(slots: usize, records: u64) -> (WaveIndex, Volume) {
        let mut vol = Volume::new(DiskConfig::default());
        let mut wave = WaveIndex::with_slots(slots);
        for (j, batches) in slot_batches(slots, records).into_iter().enumerate() {
            let refs: Vec<&DayBatch> = batches.iter().collect();
            let idx = ConstituentIndex::build_packed(
                format!("slot{j}.e0"),
                IndexConfig::default(),
                &mut vol,
                &refs,
            )
            .unwrap();
            wave.install(j, idx);
        }
        (wave, vol)
    }

    #[test]
    fn server_matches_single_threaded_wave() {
        let (wave, mut vol) = oracle(4, 50);
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 50)).unwrap();

        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            let want = wave
                .timed_index_probe(&mut vol, &SearchValue::from("k"), range)
                .unwrap();
            let got = server.probe(&SearchValue::from("k"), range).unwrap();
            assert_eq!(got.entries, want.entries, "range {range:?}");
            assert_eq!(got.indexes_accessed, want.indexes_accessed);

            let want = wave.timed_segment_scan(&mut vol, range).unwrap();
            let got = server.scan(range).unwrap();
            assert_eq!(got.entries, want.entries);
        }
        wave_cleanup(wave, &mut vol);
        server.shutdown().unwrap();
    }

    #[test]
    fn query_batch_matches_per_value_probes() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 50)).unwrap();
        // A realistic mixed batch: a hot word, a numeric value, a miss,
        // and a duplicate of the hot word.
        let values = [
            SearchValue::from("k"),
            SearchValue::from_u64(3),
            SearchValue::from("absent"),
            SearchValue::from("k"),
        ];
        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            let batch = server.query_batch(&values, range).unwrap();
            assert_eq!(batch.per_value.len(), values.len());
            for (vi, value) in values.iter().enumerate() {
                let solo = server.probe(value, range).unwrap();
                assert_eq!(
                    batch.per_value[vi], solo.entries,
                    "value {vi} range {range:?}"
                );
                assert_eq!(batch.indexes_accessed, solo.indexes_accessed);
            }
        }
        let empty = server.query_batch(&[], TimeRange::all()).unwrap();
        assert!(empty.per_value.is_empty());
        assert_eq!(empty.indexes_accessed, 0);
        server.shutdown().unwrap();
    }

    /// Slots of the batch-fold fixture: three query arms round robin,
    /// so arm 0 owns slots 0 and 3, arm 1 slots 1 and 4, arm 2 slots
    /// 2 and 5.
    const FOLD_SLOTS: usize = 6;

    /// Day `day` of fixture slot `j`: every record holds its slot's own
    /// `s{j}`; slots on arms 0 and 1 add the hot `k` to every record and
    /// `m` to every other one, slots on arm 2 hold `z` instead.
    fn fold_day(j: usize, day: u32) -> DayBatch {
        let records = (0..4 + j as u64).map(|i| {
            let mut values = vec![SearchValue::from(format!("s{j}").as_str())];
            if j % 3 == 2 {
                values.push(SearchValue::from("z"));
            } else {
                values.push(SearchValue::from("k"));
                if i % 2 == 0 {
                    values.push(SearchValue::from("m"));
                }
            }
            Record::with_values(RecordId(day as u64 * 1_000 + i), values)
        });
        DayBatch::new(Day(day), records.collect())
    }

    /// What slot 1 buffers: the deletion of its first day, and a new
    /// day whose `b` exists in no bucket.
    fn fold_buffered() -> (BTreeSet<Day>, DayBatch) {
        let add = DayBatch::new(
            Day(14),
            (0..3)
                .map(|i| {
                    Record::with_values(
                        RecordId(14_000 + i),
                        ["k", "m", "b"].map(SearchValue::from),
                    )
                })
                .collect(),
        );
        ([Day(11)].into(), add)
    }

    /// Covering keeps each constituent's hottest bucket (`k`) in memory.
    fn fold_cfg() -> IndexConfig {
        IndexConfig {
            filter: crate::filter::FilterConfig {
                covering_hot: 1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Fixture slot `j`'s days `10j+1..=10j+3`; `logical` applies slot
    /// 1's buffered update to them.
    fn fold_days(j: usize, logical: bool) -> Vec<DayBatch> {
        let first = 10 * j as u32 + 1;
        let mut days: Vec<DayBatch> = (first..first + 3).map(|day| fold_day(j, day)).collect();
        if j == 1 && logical {
            let (del, add) = fold_buffered();
            days.retain(|b| !del.contains(&b.day));
            days.push(add);
        }
        days
    }

    /// The fixture as a `WaveIndex`; `dirty` leaves slot 1's update in
    /// its ingest buffer, otherwise slot 1 is built from its logical
    /// days, as the server builds it.
    fn fold_wave(vol: &mut Volume, dirty: bool) -> WaveIndex {
        let (del, add) = fold_buffered();
        let mut wave = WaveIndex::with_slots(FOLD_SLOTS);
        for j in 0..FOLD_SLOTS {
            let days = fold_days(j, !dirty);
            let refs: Vec<&DayBatch> = days.iter().collect();
            let mut idx =
                ConstituentIndex::build_packed(format!("f{j}"), fold_cfg(), vol, &refs).unwrap();
            if j == 1 && dirty {
                idx.buffer_update(vol, &del, &[&add]);
            }
            wave.install(j, idx);
        }
        wave
    }

    /// `filter.checks`, `filter.skips`, `filter.covering_hits`,
    /// `filter.false_positives`, the `dir.probe_depth` sample count and
    /// `sched.requests`.
    fn pair_counters(obs: &Obs) -> [u64; 6] {
        [
            obs.counter("filter.checks").get(),
            obs.counter("filter.skips").get(),
            obs.counter("filter.covering_hits").get(),
            obs.counter("filter.false_positives").get(),
            obs.histogram("dir.probe_depth").count(),
            obs.counter("sched.requests").get(),
        ]
    }

    /// The counters a batch must move: every selected `(slot, value)`
    /// pruned — a repeat as often as it occurs — and every bucket left
    /// requested, measured on `vol`.
    fn per_pair_counters(
        wave: &WaveIndex,
        vol: &mut Volume,
        values: &[SearchValue],
        range: TimeRange,
    ) -> [u64; 6] {
        let before = pair_counters(vol.obs());
        let mut requests = Vec::new();
        for (_, idx) in read::select(wave.iter(), range) {
            for value in values {
                if let ProbeOutcome::Bucket(b) = idx.prune_probe(vol, value) {
                    let len = b.count as usize * crate::entry::ENTRY_BYTES;
                    requests.push(ReadRequest::new(b.extent, b.offset, len));
                }
            }
        }
        if !requests.is_empty() {
            IoScheduler::read_batch(vol, &requests).unwrap();
        }
        let after = pair_counters(vol.obs());
        std::array::from_fn(|i| after[i] - before[i])
    }

    /// A batch writes each distinct `(slot, value)` once and folds the
    /// answers in slot order; every answer still equals its per-value
    /// probe byte for byte, on a dirty `WaveIndex` and on a server with
    /// a maintenance arm and an elided arm, and the pruning and
    /// scheduler counters still count every pair, repeats included.
    #[test]
    fn query_batch_folds_each_answer_once_in_slot_order() {
        let by_name = |names: &[&str]| -> Vec<SearchValue> {
            names.iter().map(|&n| SearchValue::from(n)).collect()
        };
        // Repeats adjacent and far apart; covered (`k`), bucket (`m`,
        // with slot 1's pending delete), buffer-only (`b`), absent,
        // and per-slot values.
        let wide = by_name(&[
            "k", "k", "m", "s1", "absent", "b", "m", "z", "s4", "k", "absent", "b", "m", "s1",
        ]);
        // Nothing on arm 2's slots: the server elides that arm.
        let narrow = by_name(&["m", "k", "absent", "m", "b", "k", "m", "s0", "k"]);
        let ranges = [
            TimeRange::all(),
            // Cuts slots 0 and 1 and leaves out arm 2's slots.
            TimeRange::between(Day(2), Day(12)),
            TimeRange::between(Day(12), Day(42)),
        ];

        let mut vol = Volume::default();
        let wave = fold_wave(&mut vol, true);
        let mut twin_vol = Volume::default();
        let twin = fold_wave(&mut twin_vol, true);
        let mut clean_vol = Volume::default();
        let clean = fold_wave(&mut clean_vol, false);
        // The dirty slot serves every kind of value.
        let slot1 = wave.slot(1).unwrap();
        let outcome = |v: &str| slot1.prune_probe(&clean_vol, &SearchValue::from(v));
        assert!(matches!(outcome("k"), ProbeOutcome::Covered(_)));
        assert!(matches!(outcome("m"), ProbeOutcome::Bucket(_)));
        assert!(matches!(outcome("b"), ProbeOutcome::Covered(_)));
        assert!(matches!(
            outcome("absent"),
            ProbeOutcome::Skipped | ProbeOutcome::Absent
        ));

        let obs = Obs::noop();
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 4),
            ServerConfig {
                index: fold_cfg(),
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            obs.clone(),
        )
        .unwrap();
        let logical: Vec<Vec<DayBatch>> = (0..FOLD_SLOTS).map(|j| fold_days(j, true)).collect();
        server.install_wave(logical.clone()).unwrap();
        assert_eq!(server.maintenance_arm(), Some(3));
        for (slot, arm) in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)] {
            assert_eq!(server.arm_of(slot), Some(arm));
        }

        let elisions = obs.counter("filter.arm_elisions");
        for (values, elides_arm2) in [(&wide, false), (&narrow, true)] {
            for range in ranges {
                let at = format!("{values:?} {range:?}");
                let solo: Vec<QueryResult> = values
                    .iter()
                    .map(|v| wave.timed_index_probe(&mut vol, v, range).unwrap())
                    .collect();
                // Byte for byte against per-value probes, on the
                // WaveIndex and on the server.
                let want = per_pair_counters(&twin, &mut twin_vol, values, range);
                let before = pair_counters(vol.obs());
                let batch = wave.query_batch(&mut vol, values, range).unwrap();
                let after = pair_counters(vol.obs());
                let moved: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
                assert_eq!(moved, want, "wave counters {at}");
                for (vi, (got, want)) in batch.iter().zip(&solo).enumerate() {
                    assert_eq!(got.entries, want.entries, "wave value {vi} {at}");
                    assert_eq!(got.indexes_accessed, want.indexes_accessed, "{at}");
                }
                assert_eq!(batch.len(), values.len());

                let want = per_pair_counters(&clean, &mut clean_vol, values, range);
                let elided = elisions.get();
                let before = pair_counters(&obs);
                let q = server.query_batch(values, range).unwrap();
                let after = pair_counters(&obs);
                let moved: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
                assert_eq!(moved, want, "server counters {at}");
                if elides_arm2 {
                    assert_eq!(elisions.get(), elided + 1, "arm 2 elided {at}");
                }
                assert_eq!(q.partial, None);
                for (vi, value) in values.iter().enumerate() {
                    let probe = server.probe(value, range).unwrap();
                    assert_eq!(q.per_value[vi], probe.entries, "server value {vi} {at}");
                    assert_eq!(q.per_value[vi], solo[vi].entries, "server value {vi} {at}");
                    assert_eq!(q.indexes_accessed, probe.indexes_accessed, "{at}");
                    assert_eq!(q.indexes_accessed, solo[vi].indexes_accessed, "{at}");
                }
            }
        }

        // A maintain hand-over: slot 0 moves to arm 3 and arm 0 becomes
        // the maintenance arm, still serving slot 3. Until its Drop,
        // the displaced arm holds an older generation of slot 0; plant
        // one (with other entries) to stand for it. The route snapshot
        // must keep every one of its answers out.
        server.maintain(0, logical[0].clone()).unwrap();
        assert_eq!(
            (server.arm_of(0), server.maintenance_arm()),
            (Some(3), Some(0))
        );
        let stale = vec![day_batch(2, 9, "k"), day_batch(3, 5, "m")];
        server
            .arm(0)
            .unwrap()
            .lock_core()
            .build(0, "stale".into(), stale)
            .unwrap();
        for values in [&wide, &narrow] {
            for range in ranges {
                let at = format!("after maintain {values:?} {range:?}");
                let q = server.query_batch(values, range).unwrap();
                for (vi, value) in values.iter().enumerate() {
                    let solo = wave.timed_index_probe(&mut vol, value, range).unwrap();
                    assert_eq!(q.per_value[vi], solo.entries, "value {vi} {at}");
                    assert_eq!(q.indexes_accessed, solo.indexes_accessed, "{at}");
                }
            }
        }
        server.shutdown().unwrap();
        for (wave, mut vol) in [(wave, vol), (twin, twin_vol), (clean, clean_vol)] {
            wave_cleanup(wave, &mut vol);
        }
    }

    #[test]
    fn elapsed_is_max_over_arms_and_beats_serial() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 4),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 400)).unwrap();
        let q = server.scan(TimeRange::all()).unwrap();
        assert_eq!(q.indexes_accessed, 4);
        let max = q.per_arm_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        assert_eq!(q.elapsed_seconds, max);
        assert!(q.elapsed_seconds < q.serial_seconds);
        assert!(
            q.speedup() > 2.0,
            "4 equal arms speed up ~4x: {}",
            q.speedup()
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn maintenance_swaps_epochs_off_the_query_path() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        // Two slots on two query arms; arm 2 is the spare.
        server.install_wave(slot_batches(2, 20)).unwrap();
        assert_eq!(server.maintenance_arm(), Some(2));
        assert_eq!(server.epoch(), 0);
        let before_hits = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap()
            .entries
            .len();
        assert_eq!(before_hits, 40);

        // Rebuild slot 1 with a bigger generation.
        let report = server.maintain(1, vec![day_batch(2, 35, "k")]).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.built_on, 2);
        assert_eq!(server.epoch(), 1);
        // The displaced arm rotated into the maintenance role.
        assert_eq!(server.maintenance_arm(), Some(report.released_from));
        assert_eq!(server.arm_of(1), Some(2));
        let after = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(after.entries.len(), 20 + 35);
        // No stale blocks: total live equals the two live constituents.
        let status = server.status().unwrap();
        let slots: usize = status.iter().map(|s| s.slots.len()).sum();
        assert_eq!(slots, 2);
        server.shutdown().unwrap();
    }

    /// With more slots than query arms the arm that becomes the
    /// maintenance arm can still own slots; maintaining one of them
    /// rebuilds it in place on that arm, and the rebuilt generation
    /// must stay served.
    #[test]
    fn maintaining_a_slot_on_the_maintenance_arm_keeps_it() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        // Four slots on two query arms: arm 0 owns slots 0 and 2.
        server.install_wave(slot_batches(4, 10)).unwrap();
        assert_eq!(server.arm_of(2), Some(0));
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        server.maintain(0, vec![day_batch(1, 10, "k")]).unwrap();
        assert_eq!(server.maintenance_arm(), Some(0));
        let report = server.maintain(2, vec![day_batch(3, 10, "k")]).unwrap();
        assert_eq!((report.built_on, report.released_from), (0, 0));
        let got = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got.entries, want.entries);
        assert!(got.partial.is_none());
        let slots: usize = server.status().unwrap().iter().map(|s| s.slots.len()).sum();
        assert_eq!(slots, 4);
        server.shutdown().unwrap();
    }

    #[test]
    fn maintain_requires_reserved_arm_and_installed_slot() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(1, 5)).unwrap();
        assert!(server.maintain(0, vec![day_batch(1, 5, "k")]).is_err());
        server.shutdown().unwrap();

        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        assert!(server.maintain(7, vec![day_batch(1, 5, "k")]).is_err());
        server.shutdown().unwrap();
    }

    #[test]
    fn greedy_strategy_balances_skewed_slots() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                strategy: PlacementStrategy::Greedy,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        // Slot 0 is huge; greedy puts it alone on one arm.
        let mut batches = slot_batches(4, 10);
        batches[0] = vec![day_batch(1, 500, "k")];
        server.install_wave(batches).unwrap();
        let heavy_arm = server.arm_of(0).unwrap();
        for slot in 1..4 {
            assert_ne!(server.arm_of(slot), Some(heavy_arm), "slot {slot}");
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn per_arm_metrics_and_spans_flow() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(2, 30)).unwrap();
        server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(obs.counter("server.queries").get(), 1);
        for arm in 0..2 {
            assert!(obs.counter(&format!("server.arm{arm}.requests")).get() >= 2);
            assert!(obs.counter(&format!("server.arm{arm}.seeks")).get() >= 1);
            assert!(obs.counter(&format!("server.arm{arm}.busy_us")).get() > 0);
            assert_eq!(
                obs.gauge(&format!("server.arm{arm}.queue_depth")).get(),
                0.0
            );
        }
        let jsonl = sink.to_jsonl();
        assert!(jsonl.contains("server.install"), "{jsonl}");
        assert!(jsonl.contains("server.query"), "{jsonl}");
        server.shutdown().unwrap();
    }

    fn wave_cleanup(mut wave: WaveIndex, vol: &mut Volume) {
        wave.release_all(vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    /// Tentpole invariant: every request-scoped span emitted during a
    /// fan-out (install, probe, batch) carries the root's `trace_id`
    /// and a `parent_id` resolving inside the trace, so the flat JSONL
    /// stream reconstructs into exactly one rooted tree per request.
    #[test]
    fn fan_out_spans_form_single_rooted_trees() {
        use std::sync::Arc;
        use wave_obs::context::span_records_from_events;
        use wave_obs::{build_forest, MemorySink};
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_seed(sink.clone(), 99);
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(3, 40)).unwrap();
        server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        server
            .query_batch(
                &[SearchValue::from("k"), SearchValue::from_u64(2)],
                TimeRange::all(),
            )
            .unwrap();
        server.shutdown().unwrap();

        let records = span_records_from_events(&sink.events());
        let forest = build_forest(&records);
        assert_eq!(
            forest.len(),
            3,
            "install + probe + batch each mint one trace"
        );
        for tree in &forest {
            assert!(
                tree.is_single_rooted(),
                "trace {:016x}: {} roots, {} orphans",
                tree.trace_id,
                tree.roots.len(),
                tree.orphans
            );
            assert!(tree.span_count() >= 2, "root plus at least one arm span");
            for rec in records.iter().filter(|r| r.trace_id == tree.trace_id) {
                assert_eq!(rec.trace_id, tree.trace_id);
            }
        }
        // Forest order follows trace-id value; sort by root span id
        // (emission order) to name the three requests.
        let mut names: Vec<(u64, &str)> = forest
            .iter()
            .map(|t| (t.roots[0].span.span_id, t.roots[0].span.name.as_str()))
            .collect();
        names.sort_unstable();
        assert_eq!(
            names.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            ["server.install", "server.query", "server.query_batch"]
        );
        // Arm child spans carry their arm attribution.
        assert!(records
            .iter()
            .any(|r| r.name == "arm.probe" && r.arm.is_some() && r.parent_id.is_some()));
        // The SLO windows saw the fan-out, exemplars pointing at real
        // trace ids from the forest.
        let rows = obs.slo().report();
        let query_row = rows
            .iter()
            .find(|r| r.op == "server.query" && r.arm.is_none())
            .expect("aggregate server.query row");
        assert!(forest.iter().any(|t| t.trace_id == query_row.exemplar));
        assert!(rows
            .iter()
            .any(|r| r.op == "server.query_batch" && r.arm.is_some()));
    }

    #[test]
    fn breaker_state_machine() {
        let mut b = Breaker::new(2, 3);
        assert!(b.admit());
        assert!(!b.record_error(), "first error only counts");
        assert!(b.record_error(), "second consecutive error trips");
        // Tripped: sits out cooldown-1 queries, then a half-open probe.
        assert!(!b.admit());
        assert!(!b.admit());
        assert!(b.admit(), "half-open probe admitted");
        assert!(b.record_error(), "half-open failure re-trips");
        assert!(!b.admit());
        assert!(!b.admit());
        assert!(b.admit());
        b.record_success();
        assert_eq!(b.state, BreakerState::Healthy);
        assert!(b.admit());
        assert!(!b.record_error(), "healthy again: error count restarted");
    }

    /// A burst on the maintenance arm that outlasts the retry budget
    /// fails the build mid-way: `maintain` returns the error, commits
    /// no epoch and moves no route, readers keep their answers, and
    /// every entered request is settled. Once the arm heals, the next
    /// `maintain` succeeds.
    #[test]
    fn failed_maintenance_build_changes_no_route() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 30)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        let routes = |s: &WaveServer| (0..4).map(|slot| s.arm_of(slot)).collect::<Vec<_>>();
        let before = routes(&server);
        let maint = server.maintenance_arm().unwrap();
        server.inject_transient_reads(maint, 0, 1_000_000).unwrap();
        let err = server.maintain(1, vec![day_batch(2, 35, "k")]).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(server.epoch(), 0);
        assert_eq!(routes(&server), before);
        assert_eq!(server.maintenance_arm(), Some(maint));
        let got = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got.entries, want.entries, "a failed build loses nothing");
        assert!(got.partial.is_none());
        for arm in 0..3 {
            assert_eq!(
                obs.gauge(&format!("server.arm{arm}.queue_depth")).get(),
                0.0,
                "arm {arm}: pending accounting survives a failed build"
            );
        }
        server.clear_arm_faults(maint).unwrap();
        let report = server.maintain(1, vec![day_batch(2, 35, "k")]).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(server.arm_of(1), Some(maint));
        let after = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(after.entries.len(), 3 * 30 + 35);
        server.shutdown().unwrap();
    }

    /// Status, the displaced generation's drop and shutdown run inline
    /// under the arm's core lock, and each still enters its arm once
    /// and settles once, as a build does.
    #[test]
    fn inline_requests_enter_and_settle_once() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(2, 20)).unwrap();
        let requests = |arm: usize| obs.counter(&format!("server.arm{arm}.requests")).get();
        let depth = |arm: usize| obs.gauge(&format!("server.arm{arm}.queue_depth")).get();
        assert_eq!((0..3).map(requests).collect::<Vec<_>>(), [1, 1, 0]);
        server.status().unwrap();
        assert_eq!((0..3).map(requests).collect::<Vec<_>>(), [2, 2, 1]);
        // One build on the maintenance arm, one drop on the displaced.
        let report = server.maintain(0, vec![day_batch(1, 20, "k")]).unwrap();
        assert_eq!((report.built_on, report.released_from), (2, 0));
        assert_eq!((0..3).map(requests).collect::<Vec<_>>(), [3, 2, 2]);
        server.shutdown().unwrap();
        assert_eq!((0..3).map(requests).collect::<Vec<_>>(), [4, 3, 3]);
        for arm in 0..3 {
            assert_eq!(depth(arm), 0.0, "arm {arm}");
        }
    }

    /// Every arm a query asks is entered and settled exactly once —
    /// healthy, failing past its retry budget, or answering a scan —
    /// while an elided or quarantined arm is not asked at all.
    #[test]
    fn reads_settle_every_asked_arm_exactly_once() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                fault: FaultConfig {
                    // The failing arm never trips and the quarantined
                    // arm never cools down within the test, so which
                    // arm is asked depends on elision alone.
                    trip_after: 1_000,
                    cooldown: 1_000,
                    ..FaultConfig::default()
                },
                ..ServerConfig::default()
            },
            obs.clone(),
        )
        .unwrap();
        // Slot j holds day j + 1 on arm j.
        server.install_wave(slot_batches(3, 20)).unwrap();
        for slot in 0..3 {
            assert_eq!(server.arm_of(slot), Some(slot));
        }
        let requests = |arm: usize| obs.counter(&format!("server.arm{arm}.requests")).get();
        let before: Vec<u64> = (0..3).map(requests).collect();
        server.quarantine_arm(1).unwrap();
        server.inject_transient_reads(2, 0, 1_000_000).unwrap();

        // Day 1 lies in slot 0 only, so a probe or a batch over it
        // elides arm 2. A scan is never elided: it asks arm 2, which
        // then selects no slot, reads nothing and cannot fail.
        let day1 = TimeRange::between(Day(1), Day(1));
        let values = [SearchValue::from("k"), SearchValue::from_u64(3)];
        let mut asked = [0u64; 3];
        for range in [TimeRange::all(), day1] {
            let arm2_reads = range == TimeRange::all();
            let want_missing = if arm2_reads { vec![1, 2] } else { vec![1] };
            let probe = server.probe(&SearchValue::from("k"), range).unwrap();
            let batch = server.query_batch(&values, range).unwrap();
            let scan = server.scan(range).unwrap();
            for partial in [probe.partial, batch.partial, scan.partial] {
                assert_eq!(partial.unwrap().missing_slots, want_missing, "{range:?}");
            }
            asked[0] += 3;
            asked[2] += if arm2_reads { 3 } else { 1 };
        }
        assert!(obs.counter("filter.arm_elisions").get() >= 2);
        for arm in 0..3 {
            assert_eq!(requests(arm) - before[arm], asked[arm], "arm {arm}");
            assert_eq!(
                obs.gauge(&format!("server.arm{arm}.queue_depth")).get(),
                0.0,
                "arm {arm}"
            );
        }
        server.clear_arm_faults(2).unwrap();
        server.shutdown().unwrap();
    }

    /// A build that fails on one faulted query arm fails the whole
    /// install, which routes no slot; the constituent built on the
    /// healthy arm is still released by `shutdown`, whose leak check
    /// passes.
    #[test]
    fn failed_install_routes_nothing_and_does_not_leak() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.inject_transient_reads(1, 0, 1_000_000).unwrap();
        let err = server.install_wave(slot_batches(2, 10)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        for slot in 0..2 {
            assert_eq!(server.arm_of(slot), None, "slot {slot}");
        }
        let q = server.scan(TimeRange::all()).unwrap();
        assert!(q.entries.is_empty() && q.indexes_accessed == 0);
        server.clear_arm_faults(1).unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn transient_read_bursts_are_retried_away() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 30)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        for arm in 0..2 {
            server.inject_transient_reads(arm, 0, 2).unwrap();
        }
        let got = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got.entries, want.entries, "burst shorter than retry budget");
        assert!(got.partial.is_none());
        assert!(obs.counter("server.read_retries").get() >= 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn query_batch_is_equivalent_under_transient_faults() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 40)).unwrap();
        let values = [
            SearchValue::from("k"),
            SearchValue::from_u64(3),
            SearchValue::from("absent"),
        ];
        let range = TimeRange::all();
        let want: Vec<Vec<Entry>> = values
            .iter()
            .map(|v| server.probe(v, range).unwrap().entries)
            .collect();
        for arm in 0..2 {
            server.inject_transient_reads(arm, 0, 2).unwrap();
        }
        let batch = server.query_batch(&values, range).unwrap();
        assert!(batch.partial.is_none());
        for (vi, entries) in want.iter().enumerate() {
            assert_eq!(&batch.per_value[vi], entries, "value {vi}");
        }
        assert!(obs.counter("server.read_retries").get() >= 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn persistent_arm_failure_degrades_with_explicit_gaps() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        // slot j holds day j+1, so entry.day maps an entry to a slot.
        let arm0_slots: Vec<usize> = (0..4).filter(|s| server.arm_of(*s) == Some(0)).collect();
        let covered: Vec<Entry> = want
            .entries
            .iter()
            .filter(|e| !arm0_slots.contains(&(e.day.0 as usize - 1)))
            .cloned()
            .collect();
        // A burst far beyond the retry budget: every query through arm
        // 0 fails until the breaker quarantines the arm.
        server.inject_transient_reads(0, 0, 1_000_000).unwrap();
        for i in 0..4 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            let partial = q.partial.expect("degraded answer");
            assert_eq!(partial.missing_slots, arm0_slots, "query {i}");
            assert_eq!(q.entries, covered, "covered slots stay byte-identical");
        }
        assert!(obs.counter("server.breaker_trips").get() >= 1);
        assert!(obs.counter("server.degraded_queries").get() >= 4);
        // Heal the arm; after the cooldown the half-open probe
        // re-admits it and answers are whole again.
        server.clear_arm_faults(0).unwrap();
        let mut healed = None;
        for _ in 0..8 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            if q.partial.is_none() {
                healed = Some(q);
                break;
            }
        }
        let healed = healed.expect("arm re-admitted after cooldown");
        assert_eq!(healed.entries, want.entries);
        server.shutdown().unwrap();
    }

    #[test]
    fn quarantine_skips_the_arm_then_half_open_readmits() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        server.quarantine_arm(1).unwrap();
        let q = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        let partial = q.partial.expect("quarantined arm leaves gaps");
        assert!(!partial.missing_slots.is_empty());
        // The healthy arm's slots never go missing.
        for slot in &partial.missing_slots {
            assert_eq!(server.arm_of(*slot), Some(1));
        }
        let mut healed = None;
        for _ in 0..8 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            if q.partial.is_none() {
                healed = Some(q);
                break;
            }
        }
        assert_eq!(healed.expect("re-admitted").entries, want.entries);
        server.shutdown().unwrap();
    }

    #[test]
    fn degraded_reads_off_propagates_arm_errors() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                fault: FaultConfig {
                    degraded_reads: false,
                    ..FaultConfig::default()
                },
                ..ServerConfig::default()
            },
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        server.inject_transient_reads(0, 0, 1_000_000).unwrap();
        let err = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        server.clear_arm_faults(0).unwrap();
        assert!(server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .is_ok());
        server.shutdown().unwrap();
    }

    /// A flight recorder wired as the trace sink promotes queries whose
    /// root latency crosses the threshold; their traces come back
    /// verbatim from the promoted ring.
    #[test]
    fn flight_recorder_promotes_slow_server_queries() {
        use std::sync::Arc;
        use wave_obs::{FlightConfig, FlightRecorder};
        let recorder = Arc::new(FlightRecorder::new(FlightConfig {
            promote_latency_us: 1,
            ..FlightConfig::default()
        }));
        let obs = Obs::new(recorder.clone());
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs,
        )
        .unwrap();
        server.install_wave(slot_batches(2, 200)).unwrap();
        server.scan(TimeRange::all()).unwrap();
        server.shutdown().unwrap();
        let promoted = recorder.promoted();
        let scan = promoted
            .iter()
            .find(|t| t.root_name == "server.query")
            .expect("slow scan promoted");
        assert!(scan.latency_us >= 1);
        assert!(scan.error.is_none());
        assert!(
            scan.events.iter().any(|e| e.name == "arm.scan"),
            "promoted trace keeps its worker spans"
        );
    }
}
