//! The unified front door: classifier-routed query sessions.
//!
//! The paper is a *dichotomy*: q-hierarchical queries admit constant-time
//! updates with constant-delay enumeration (Theorem 3.2), everything else
//! conditionally does not (Theorems 3.3–3.5) and must fall back to
//! IVM-style maintenance. [`Session`] turns that theorem into an API:
//! callers register named queries, the dichotomy classifier picks the
//! engine per query ([`EngineChoice::Auto`]), and updates fan out to all
//! registered queries at once — singly ([`Session::apply`]), batched with
//! netting ([`Session::apply_batch`]), or under all-or-nothing
//! transactions ([`Session::transaction`]). [`QueryHandle`]s expose O(1)
//! counting, Boolean answering, constant-delay enumeration, and a change
//! feed ([`QueryHandle::subscribe`]) of per-update result deltas.
//!
//! # Threading model
//!
//! [`Session`] is `Send + Sync`: all interior state is either plain data
//! behind the `&mut self` write path or guarded by short-lived mutexes
//! (subscriber lists, epoch build locks). Writers are serialized by
//! construction — every update flows through one `&mut self` dispatch
//! path. Readers scale out through **epoch publication**: each query's
//! latest pinned state sits in an atomically swappable cell
//! ([`cqu_common::EpochCell`]), and every pin is an exact, internally
//! consistent `(seq, result)` frame:
//!
//! * **Lock-free pins** ([`PinReader::pin`], via
//!   [`QueryHandle::pin_reader`] / [`SharedSession::reader`]): a single
//!   atomic load — no session lock, ever. Pins complete while a writer
//!   or open transaction holds the lock exclusively (and never see its
//!   uncommitted state); a reader holding an arbitrarily old epoch
//!   never delays publication, and replaced epochs free themselves the
//!   moment their last pin drops.
//! * **Locked snapshots** ([`QueryHandle::snapshot`]): an immutable,
//!   `Send + Sync` [`QuerySnapshot`] pinned at the current update
//!   sequence number, republishing the epoch first when updates have
//!   landed since. On the q-hierarchical engine republication costs
//!   O(components) — the engine's structures are `Arc`-shared into the
//!   epoch and the *writer* pays the divergence, copy-on-write, once
//!   per retained epoch per touched component.
//! * **Change feeds** ([`QueryHandle::subscribe`]): [`Subscription`]s are
//!   `Send` and deliver [`Arc<ChangeEvent>`]s — one allocation per event,
//!   shared zero-copy by every subscriber, receivable on any thread.
//!
//! [`SharedSession`] packages the standard deployment: `Arc<RwLock>`
//! writer serialization with epoch-pinning readers.
//!
//! ```
//! use cq_updates::prelude::*;
//!
//! let mut session = Session::new();
//! session.register("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p).").unwrap();
//! let follows = session.relation("Follows").unwrap();
//! let posts = session.relation("Posts").unwrap();
//!
//! // The classifier routed the q-hierarchical feed query to QhEngine.
//! assert_eq!(session.query("feed").unwrap().kind(), EngineKind::QHierarchical);
//!
//! session.apply_batch(&[
//!     Update::Insert(follows, vec![1, 2]),
//!     Update::Insert(posts, vec![2, 77]),
//! ]).unwrap();
//! assert_eq!(session.query("feed").unwrap().count(), 1);
//!
//! // Snapshot isolation: a pinned view survives later updates.
//! let snap = session.query("feed").unwrap().snapshot();
//! session.apply(&Update::Delete(posts, vec![2, 77])).unwrap();
//! assert_eq!(snap.count(), 1);
//! assert_eq!(session.query("feed").unwrap().count(), 0);
//! ```

use crate::error::CqError;
use cqu_baseline::EngineKind;
use cqu_common::{lock, EpochCell, FxHashMap};
use cqu_dynamic::{DynamicEngine, ResultDelta, ResultSnapshot, UpdateReport};
use cqu_obs::{Counter, Histogram, Registry};
use cqu_query::classify::{classify, Classification, Verdict};
use cqu_query::hierarchical::{q_hierarchical_violation, Violation};
use cqu_query::{parse_query, Query, QueryBuilder, QueryError, RelId, Schema};
use cqu_serve::backpressure::{BoundedQueue, TryRecv};
use cqu_serve::ring::SeqRing;
use cqu_storage::{ApplyUpdate, Database, Tuple, Update};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::time::{Duration, Instant};

/// How [`Session::register_with`] picks an engine for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Classifier-routed (the paper's dichotomy): q-hierarchical queries
    /// — directly or through their homomorphic core — go to the dynamic
    /// engine; conditionally hard ones fall back to delta-IVM.
    #[default]
    Auto,
    /// Use exactly this engine; registration fails with
    /// [`CqError::Query`] if the engine cannot admit the query.
    Forced(EngineKind),
}

/// A stable identifier for a registered query within its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(usize);

/// One result-set delta, published to [`Subscription`]s after every
/// effective [`Session::apply`] / [`Session::apply_batch`] — or, inside a
/// [`Session::transaction`], once at commit with the transaction's net
/// delta (nothing at all on rollback).
///
/// Events are delivered as [`Arc<ChangeEvent>`]: one allocation per
/// update, shared by every subscriber on the query (multi-subscriber
/// fan-out never clones the payload).
///
/// Both sides are sorted and duplicate-free; a tuple never appears on
/// both sides of one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// Session-wide sequence number of the causing update (for batches
    /// and transactions: of their last effective update).
    pub seq: u64,
    /// Result tuples that entered `ϕ(D)`.
    pub added: Vec<Tuple>,
    /// Result tuples that left `ϕ(D)`.
    pub removed: Vec<Tuple>,
}

/// The receiving end of a [`QueryHandle::subscribe`] change feed.
///
/// Events accumulate until polled; dropping the subscription detaches it
/// (the session prunes dead feeds before its next delta extraction).
/// Subscriptions are `Send`: hand one to a reader thread and drain it
/// there while the session keeps applying updates.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<Arc<ChangeEvent>>,
    _alive: Arc<()>,
}

impl Subscription {
    /// Takes the next pending event, if any (non-blocking).
    pub fn poll(&self) -> Option<Arc<ChangeEvent>> {
        self.rx.try_recv().ok()
    }

    /// Drains all pending events (non-blocking).
    pub fn drain(&self) -> Vec<Arc<ChangeEvent>> {
        std::iter::from_fn(|| self.poll()).collect()
    }

    /// Blocks until the next event arrives; `None` once the feed is
    /// disconnected (the session — or its query — was dropped).
    pub fn recv(&self) -> Option<Arc<ChangeEvent>> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<ChangeEvent>> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Like [`Subscription::recv_timeout`], but distinguishes an idle
    /// feed from a closed one (session or query dropped) — the serving
    /// layer needs the difference to tear down fan-out pumps.
    pub(crate) fn recv_timeout_raw(
        &self,
        timeout: Duration,
    ) -> Result<Arc<ChangeEvent>, std::sync::mpsc::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

/// The receiving end of a [`QueryHandle::subscribe_bounded`] change
/// feed: at most `cap` events are ever pending. When the consumer falls
/// behind, the session **coalesces** — pending events plus the new one
/// are netted into a single exact catch-up event — instead of growing
/// the queue or blocking the writer. The same lag policy network
/// subscribers get, for in-process feeds.
#[derive(Debug)]
pub struct BoundedSubscription {
    queue: Arc<BoundedQueue<Arc<ChangeEvent>>>,
    _alive: Arc<()>,
}

impl BoundedSubscription {
    /// Takes the next pending event, if any (non-blocking).
    pub fn poll(&self) -> Option<Arc<ChangeEvent>> {
        match self.queue.try_recv() {
            TryRecv::Item(e) => Some(e),
            TryRecv::Empty | TryRecv::Closed => None,
        }
    }

    /// Drains all pending events (non-blocking).
    pub fn drain(&self) -> Vec<Arc<ChangeEvent>> {
        self.queue.drain()
    }

    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arc<ChangeEvent>> {
        match self.queue.recv_timeout(timeout) {
            TryRecv::Item(e) => Some(e),
            TryRecv::Empty | TryRecv::Closed => None,
        }
    }

    /// How many times the session had to coalesce because this consumer
    /// lagged behind its capacity. A netted catch-up event carries the
    /// same net delta the individual events would have, so a nonzero
    /// count means coarser granularity, never lost changes.
    pub fn coalesced(&self) -> u64 {
        self.queue.coalesced()
    }

    /// Number of events currently pending (≤ the subscribed capacity).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl Drop for BoundedSubscription {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// How [`QueryHandle::subscribe_from`] satisfied a resume cursor.
#[derive(Debug)]
pub enum Resume {
    /// The cursor was covered by the query's delta retention ring
    /// ([`QueryHandle::retain_deltas`]): apply `catch_up` (the netted
    /// delta `from_seq → cursor`; `None` when the result did not change
    /// net), then follow `feed` — every event on it with `seq` ≤
    /// `cursor` is already folded into the catch-up and must be skipped.
    Resumed {
        /// The resumed stream position: everything up to and including
        /// this seq is covered by `catch_up`.
        cursor: u64,
        /// The netted events `from_seq → cursor`, or `None` when they
        /// cancelled out (or none were retained).
        catch_up: Option<ChangeEvent>,
        /// The live feed from `cursor` onwards.
        feed: Subscription,
    },
    /// Retention is disabled — or the ring evicted the cursor: start
    /// over from a full snapshot, then follow `feed`, skipping events
    /// with `seq` ≤ [`QuerySnapshot::seq`].
    Resync {
        /// The current result, pinned; its [`QuerySnapshot::seq`] is the
        /// new cursor.
        snapshot: QuerySnapshot,
        /// The live feed from the snapshot onwards.
        feed: Subscription,
    },
}

/// What [`QueryHandle::replay_since`] could recover from the retention
/// ring.
#[derive(Debug)]
pub enum ReplayOutcome {
    /// The cursor is covered: `event` is the netted delta stream
    /// `from_seq → upto` (`None` when it nets to nothing).
    Covered {
        /// The seq the replay catches the caller up to
        /// (`max(from_seq, last retained seq)`).
        upto: u64,
        /// The netted catch-up delta, stamped `upto`.
        event: Option<ChangeEvent>,
    },
    /// The cursor predates the ring's floor (`Some`) or retention was
    /// never enabled (`None`): only a snapshot resync can help.
    Unavailable {
        /// The ring's current coverage floor, if retention is on.
        floor: Option<u64>,
    },
}

/// Why the auto-router chose the engine it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteReason {
    /// The query is q-hierarchical; Theorem 3.2 applies directly.
    QHierarchical,
    /// The query is not q-hierarchical but its homomorphic core is;
    /// the engine maintains the core (`core(ϕ)(D) = ϕ(D)`).
    QHierarchicalCore,
    /// Conditionally hard (or open) per Theorems 3.3–3.5; a baseline
    /// engine maintains the result.
    Fallback,
    /// The caller forced the engine with [`EngineChoice::Forced`].
    Forced,
}

/// Where a feed endpoint delivers its events.
enum Sink {
    /// Unbounded mpsc ([`QueryHandle::subscribe`]).
    Channel(Sender<Arc<ChangeEvent>>),
    /// Bounded coalescing queue ([`QueryHandle::subscribe_bounded`]).
    Bounded(Arc<BoundedQueue<Arc<ChangeEvent>>>),
}

impl Sink {
    /// Delivers one event; `false` means the consumer is gone and the
    /// subscriber should be pruned.
    fn deliver(&self, event: &Arc<ChangeEvent>) -> bool {
        match self {
            Sink::Channel(tx) => tx.send(Arc::clone(event)).is_ok(),
            Sink::Bounded(q) => {
                q.push_coalescing(Arc::clone(event), |all| Arc::new(net_events(all)))
            }
        }
    }
}

/// Nets a run of per-query events into one exact catch-up event stamped
/// with the last seq — the coalescing function for bounded feeds and the
/// replay function for resume cursors. The net delta may be empty (the
/// changes cancelled); callers decide whether an empty event is worth
/// delivering.
fn net_events<E: std::borrow::Borrow<ChangeEvent>>(events: Vec<E>) -> ChangeEvent {
    let seq = events
        .last()
        .map(|e| e.borrow().seq)
        .expect("netting requires at least one event");
    let mut delta = ResultDelta::default();
    for e in events {
        let e = e.borrow();
        delta.added.extend(e.added.iter().cloned());
        delta.removed.extend(e.removed.iter().cloned());
    }
    delta.normalize();
    ChangeEvent {
        seq,
        added: delta.added,
        removed: delta.removed,
    }
}

/// One feed endpoint: the sink plus a liveness token mirroring the
/// subscription's lifetime, so dead feeds can be pruned without
/// sending.
struct Subscriber {
    sink: Sink,
    alive: Weak<()>,
}

/// A query's change-feed state: the live subscribers and, when serving
/// enables it, the bounded seq-keyed delta retention ring that resume
/// cursors replay from. One mutex guards both so ring retention and
/// fan-out observe events in the same order atomically.
#[derive(Default)]
struct FeedState {
    subs: Vec<Subscriber>,
    ring: Option<SeqRing<Arc<ChangeEvent>>>,
}

/// One published epoch of a query: an immutable, internally consistent
/// `(seq, version, generation, snapshot)` quadruple. The snapshot is
/// exactly the query's result after the first `seq` effective updates of
/// the session stream — epochs freeze the stamp and the state *together*,
/// so a pin of any epoch, however stale, is never torn.
struct Epoch {
    /// Session sequence number at publication (`timeline[seq]` index).
    seq: u64,
    /// The engine-state version ([`Registered::version`]) this reflects.
    version: u64,
    /// Storage-level footprint generation at publication: the max
    /// [`cqu_storage::Database::relation_generation`] over the query's
    /// `relevant` relations. Moves only when one of *this query's*
    /// relations changes — foreign traffic (other queries' relations in
    /// this session, other shards entirely) never moves the stamp, so
    /// equal stamps mean identical pinned states.
    generation: u64,
    snap: Arc<dyn ResultSnapshot>,
}

struct Registered {
    name: Arc<str>,
    /// The query as the caller wrote it, remapped onto the session schema.
    query: Query,
    classification: Classification,
    kind: EngineKind,
    reason: RouteReason,
    engine: Box<dyn DynamicEngine>,
    /// Per relation (indexed by `RelId`, sized to the schema at build
    /// time): whether the *maintained* query references it. Updates to
    /// unreferenced relations — including relations interned after this
    /// registration — provably cannot change the result and are not
    /// routed; in particular they never trigger delta extraction.
    relevant: Vec<bool>,
    /// The query's current footprint generation: the max per-relation
    /// storage stamp ([`cqu_storage::Database::relation_generation`])
    /// over its `relevant` relations. Seeded by [`footprint_generation`]
    /// at registration, then maintained in O(1) on the write path (the
    /// latest effective change to any footprint relation is always the
    /// update that just landed). Moves only when one of *this query's*
    /// relations changes.
    footprint_gen: u64,
    /// Monotone engine-state version: bumped before every mutation of
    /// `engine`, so published epochs know when they go stale.
    version: u64,
    /// The published epoch: the per-registration pin cache *and* the
    /// lock-free reader fast path ([`PinReader`]) in one cell. Pinning is
    /// a single atomic load; publication atomically retires the previous
    /// epoch, which is freed the moment its last pin drops.
    cell: Arc<EpochCell<Epoch>>,
    /// Serializes lazy epoch rebuilds among concurrent `&self` readers,
    /// so a stale epoch is rebuilt once, not once per racing reader.
    /// Never touched by [`PinReader::pin`].
    build_lock: Mutex<()>,
    feed: Mutex<FeedState>,
    /// Shared `session_epoch_publications_total` handle, present once the
    /// session shares a metrics registry ([`Session::share_registry`]).
    epoch_pubs: Option<Arc<Counter>>,
}

/// The storage-level generation stamp of a query footprint: the max
/// per-relation generation over the relations `relevant` marks. O(|σ|);
/// computed once at registration to seed [`Registered::footprint_gen`],
/// which the write path then maintains in O(1).
fn footprint_generation(relevant: &[bool], db: &Database) -> u64 {
    relevant
        .iter()
        .enumerate()
        .filter(|&(_, &wanted)| wanted)
        .map(|(i, _)| db.relation_generation(RelId(i as u32)))
        .max()
        .unwrap_or(0)
}

impl Registered {
    fn wants(&self, rel: RelId) -> bool {
        self.relevant.get(rel.index()).copied().unwrap_or(false)
    }

    /// Prunes dropped subscriptions and returns how many remain — called
    /// before every tracked update so detached feeds stop costing delta
    /// extraction immediately.
    fn prune_subscribers(&self) -> usize {
        let mut feed = lock(&self.feed);
        feed.subs.retain(|s| s.alive.strong_count() > 0);
        feed.subs.len()
    }

    /// Whether the write path must extract result deltas for this query:
    /// someone is subscribed, or delta retention is enabled (the ring
    /// must see every event, subscribers or not, to keep resume cursors
    /// servable).
    fn wants_deltas(&self) -> bool {
        let mut feed = lock(&self.feed);
        feed.subs.retain(|s| s.alive.strong_count() > 0);
        !feed.subs.is_empty() || feed.ring.is_some()
    }

    /// Publishes a normalized engine-produced delta; empty deltas are
    /// dropped silently. The event is allocated once, retained in the
    /// ring (when enabled), and fanned out as `Arc` clones — ring and
    /// subscribers observe it atomically under the feed lock.
    fn publish(&self, seq: u64, mut delta: ResultDelta) {
        delta.normalize();
        if delta.is_empty() {
            return;
        }
        let event = Arc::new(ChangeEvent {
            seq,
            added: delta.added,
            removed: delta.removed,
        });
        let mut feed = lock(&self.feed);
        if let Some(ring) = feed.ring.as_mut() {
            ring.push(seq, Arc::clone(&event));
        }
        feed.subs
            .retain(|s| s.alive.strong_count() > 0 && s.sink.deliver(&event));
    }

    /// Returns the published epoch for the *current* engine version,
    /// rebuilding and republishing it on first demand after an update.
    /// Repeated pins with no intervening update are an atomic load.
    ///
    /// Callers hold the session at least shared (`&self` with no live
    /// writer), so `self.version` is stable across the call.
    fn pinned(&self, seq: u64, generation: u64) -> Arc<Epoch> {
        let epoch = self.cell.load();
        if epoch.version == self.version {
            return epoch;
        }
        // Stale: rebuild under the build lock so racing readers share one
        // rebuild; re-check after acquisition (another reader may have
        // published while we waited).
        let _build = lock(&self.build_lock);
        let epoch = self.cell.load();
        if epoch.version == self.version {
            return epoch;
        }
        self.publish_epoch(seq, generation);
        self.cell.load()
    }

    /// Builds a snapshot of the engine's current state and publishes it
    /// as the new epoch, consuming any pending refresh request.
    fn publish_epoch(&self, seq: u64, generation: u64) {
        let snap: Arc<dyn ResultSnapshot> = Arc::from(self.engine.snapshot());
        self.cell.take_refresh_request();
        self.cell.store(Arc::new(Epoch {
            seq,
            version: self.version,
            generation,
            snap,
        }));
        if let Some(c) = self.epoch_pubs.as_ref() {
            c.inc();
        }
    }

    /// Writer-side bookkeeping around an engine mutation: bump the state
    /// version and mirror it into the cell so lock-free pins can detect
    /// (and request refresh for) a lagging epoch.
    fn touch(&mut self) {
        self.version += 1;
        self.cell.set_live_version(self.version);
    }

    /// Writer-side demand-driven publication: republish the epoch iff a
    /// pin observed staleness since the last publication *and* this
    /// engine's snapshots are cheap (O(components) `Arc` clones on the
    /// q-hierarchical engine). Engines with `Ω(|view|)` snapshots
    /// (delta-IVM, diff fallbacks) never stall the writer: their epochs
    /// refresh lazily, on the next locked pin. Stamps the maintained
    /// footprint generation — O(1) either way.
    fn republish_on_demand(&self, seq: u64) {
        if self.engine.snapshot_is_cheap() && self.cell.take_refresh_request() {
            self.publish_epoch(seq, self.footprint_gen);
        }
    }
}

/// Registry handles for the write path, resolved once at
/// [`Session::share_registry`] so each dispatch pays only relaxed atomic
/// ops (and one clock read for the latency histogram), never a registry
/// lookup.
struct SessionMetrics {
    registry: Arc<Registry>,
    updates: Arc<Counter>,
    batches: Arc<Counter>,
    transactions: Arc<Counter>,
    rollbacks: Arc<Counter>,
    commit_latency_ns: Arc<Histogram>,
    epoch_publications: Arc<Counter>,
}

impl SessionMetrics {
    fn new(registry: Arc<Registry>) -> SessionMetrics {
        SessionMetrics {
            updates: registry.counter("session_updates_total"),
            batches: registry.counter("session_batches_total"),
            transactions: registry.counter("session_transactions_total"),
            rollbacks: registry.counter("session_rollbacks_total"),
            commit_latency_ns: registry.histogram("session_commit_latency_ns"),
            epoch_publications: registry.counter("session_epoch_publications_total"),
            registry,
        }
    }
}

/// Per-query subscriber-delta accumulation inside a transaction.
///
/// Engines with native delta extraction accumulate raw flips per update
/// (`Native`); engines on the snapshot-diff fallback would pay two full
/// result enumerations *per update* that way, so for them the session
/// snapshots the result once, at the query's first touched update, and
/// performs a single diff at commit (`Snapshot`) — the same net event
/// for one enumeration per transaction instead of two per update.
#[derive(Debug, Clone)]
enum TxTrack {
    /// No subscribed, concerned update has reached this query yet.
    Untouched,
    /// Accumulated native flips ([`DynamicEngine::delta_hint`]).
    Native(ResultDelta),
    /// The sorted result as of the first touched update (diff fallback).
    Snapshot(Vec<Tuple>),
}

/// A set of named queries maintained together under one update stream.
///
/// `Session` is `Send + Sync`; writers are serialized through `&mut self`
/// and readers either borrow `&self` or pin [`QuerySnapshot`]s. See the
/// module docs for the threading model and [`SharedSession`] for the
/// packaged `Arc<RwLock>` deployment.
pub struct Session {
    schema: Schema,
    /// Master database: the ground truth every engine was seeded from.
    db: Database,
    regs: Vec<Registered>,
    by_name: FxHashMap<String, usize>,
    seq: u64,
    /// When set, sequence numbers are drawn from this shared counter
    /// instead of the private `seq` field — the mechanism by which every
    /// shard of a [`crate::shard::ShardedSession`] stamps its updates
    /// onto one global timeline. `seq` then caches the last number this
    /// session drew (its own updates' position in the global stream).
    seq_source: Option<Arc<AtomicU64>>,
    /// While a [`SessionTransaction`] is open: per-registration
    /// accumulators for subscriber deltas. Events are netted here and
    /// emitted once at commit; a rollback discards the buffer, so
    /// nothing is ever published.
    tx_buffer: Option<Vec<TxTrack>>,
    /// Set while a rolled-back transaction replays its inverses:
    /// suppresses delta tracking entirely (the buffer is about to be
    /// discarded, so extracting deltas would be pure waste — up to two
    /// full result enumerations per inverse on diff-fallback engines).
    rolling_back: bool,
    /// Write-path instrumentation ([`Session::share_registry`]); `None`
    /// keeps dispatch free of clock reads and atomic traffic.
    metrics: Option<SessionMetrics>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field(
                "queries",
                &self.regs.iter().map(|r| &*r.name).collect::<Vec<_>>(),
            )
            .field("relations", &self.schema.len())
            .field("cardinality", &self.db.cardinality())
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session over a pre-declared schema. Queries registered
    /// later may also intern new relations on the fly.
    pub fn open(schema: Schema) -> Session {
        let db = Database::new(schema.clone());
        Session {
            schema,
            db,
            regs: Vec::new(),
            by_name: FxHashMap::default(),
            seq: 0,
            seq_source: None,
            tx_buffer: None,
            rolling_back: false,
            metrics: None,
        }
    }

    /// Switches this session onto a shared sequence counter: every
    /// effective update from now on draws its number from `source`
    /// (one atomic `fetch_add`; batches reserve a contiguous range), so
    /// several sessions sharing one source stamp their updates onto a
    /// single totally-ordered timeline. The shard layer calls this on
    /// each shard's session at build time, before any update flows.
    pub(crate) fn share_seq(&mut self, source: Arc<AtomicU64>) {
        debug_assert_eq!(self.seq, 0, "seq sharing must precede all updates");
        self.seq = source.load(Ordering::Relaxed);
        self.seq_source = Some(source);
    }

    /// The counter this session draws sequence numbers from. A
    /// standalone session is switched onto a fresh counter holding its
    /// current seq, so a one-shard [`crate::shard::ShardedSession`] can
    /// read the position without taking the session lock.
    pub(crate) fn seq_counter(&mut self) -> Arc<AtomicU64> {
        let seq = self.seq;
        Arc::clone(
            self.seq_source
                .get_or_insert_with(|| Arc::new(AtomicU64::new(seq))),
        )
    }

    /// Points this session at a shared metrics registry: effective
    /// updates, batches, transactions, rollbacks, commit latency, and
    /// epoch publications are counted there from now on. Handles are
    /// resolved once; the write path then pays a few relaxed atomic ops
    /// (plus one clock read per commit for the latency histogram). A
    /// session without a registry pays neither — the knob the overhead
    /// bench (E16) flips.
    ///
    /// Layers stack onto *one* registry: the durable layer attaches the
    /// same instance to its WAL, the shard layer shares it across every
    /// shard session, and the serving layer renders it over the wire.
    pub fn share_registry(&mut self, registry: Arc<Registry>) {
        let metrics = SessionMetrics::new(registry);
        for reg in &mut self.regs {
            reg.epoch_pubs = Some(Arc::clone(&metrics.epoch_publications));
        }
        self.metrics = Some(metrics);
    }

    /// The shared metrics registry, when one is attached.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Draws the next `n` sequence numbers (one per effective update just
    /// dispatched) and returns the last — the stamp for this step's
    /// epochs and events. Standalone sessions count locally; shard
    /// sessions reserve a contiguous range of the shared global counter.
    fn advance_seq(&mut self, n: u64) -> u64 {
        self.seq = match &self.seq_source {
            None => self.seq + n,
            // Relaxed suffices: uniqueness (not ordering) carries the
            // correctness argument, and every consumer of the drawn value
            // reads it through this shard's writer lock.
            Some(source) => source.fetch_add(n, Ordering::Relaxed) + n,
        };
        self.seq
    }

    /// Recovery hook: forces the sequence counter to `seq` and
    /// republishes every registration's epoch stamped with it.
    ///
    /// Replaying a log applies updates through the normal dispatch path,
    /// which draws fresh sequence numbers from zero — numbers that do
    /// not match the log's stamps whenever rollbacks burned part of the
    /// budget in a previous life. The durable layer replays first, then
    /// forces the counter to the last durable seq so post-recovery
    /// updates and subscriber cursors continue the original timeline.
    /// Only sound while no readers are attached (recovery runs before
    /// the session is shared), which is why it stays crate-private.
    pub(crate) fn force_seq(&mut self, seq: u64) {
        if let Some(source) = &self.seq_source {
            source.store(seq, Ordering::Relaxed);
        }
        self.seq = seq;
        for reg in &mut self.regs {
            reg.touch();
            reg.publish_epoch(seq, reg.footprint_gen);
        }
    }

    /// Opens a session with an empty schema (relations are interned by
    /// the queries that mention them).
    pub fn new() -> Session {
        Session::open(Schema::new())
    }

    /// The session schema (the union of all registered queries' schemas).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The master database all engines were seeded from.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of effective update commands dispatched so far: single
    /// applies and batch members each count one. A rolled-back
    /// transaction *burns* its forward updates' numbers (the states they
    /// numbered were never published, so those positions are simply
    /// gaps in the visible timeline) — its compensating inverses draw
    /// none. Single-writer and sharded sessions burn identically; the
    /// sharded-session suite pins the equality.
    ///
    /// Inside a [`crate::shard::ShardedSession`], where sessions share
    /// one global counter, this is the *global* position of this shard's
    /// most recent update (other shards may have drawn later numbers).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Resolves a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelId, CqError> {
        self.schema
            .relation(name)
            .ok_or_else(|| CqError::UnknownRelation(name.to_string()))
    }

    /// Parses and registers a query under `name`, classifier-routed.
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryId, CqError> {
        self.register_with(name, src, EngineChoice::Auto)
    }

    /// Parses and registers a query under `name` with an explicit engine
    /// choice.
    pub fn register_with(
        &mut self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        let q = parse_query(src)?;
        self.register_query(name, &q, choice)
    }

    /// Registers an already-built query under `name`.
    ///
    /// The query is remapped onto the session schema (new relations are
    /// interned; arity clashes error), classified, and handed to the
    /// chosen engine seeded from the session's current database.
    pub fn register_query(
        &mut self,
        name: &str,
        query: &Query,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        if self.by_name.contains_key(name) {
            return Err(CqError::DuplicateQuery(name.to_string()));
        }
        // Stage everything fallible before mutating the session: a failed
        // registration must leave schema and master database untouched.
        let (staged_schema, query) = self.adopt(query)?;
        let classification = classify(&query);
        let (kind, reason) = route(&query, &classification, choice);
        let maintained: &Query = match reason {
            RouteReason::QHierarchicalCore => &classification.core,
            _ => &query,
        };
        if let Some(violation) = admission_violation(kind, maintained) {
            return Err(QueryError::NotQHierarchical(violation).into());
        }
        // Commit: grow schema + database, then build. The admission
        // pre-check above is the only failure mode an engine constructor
        // has, so a build error past this point is a bug — panic loudly
        // rather than `?`-masking a broken atomicity invariant.
        self.schema = staged_schema;
        self.db.adopt_schema(&self.schema);
        // Route only relations the maintained query references (for
        // core-routed queries that is the core, whose atoms are a subset).
        let mut relevant = vec![false; self.schema.len()];
        for atom in maintained.atoms() {
            relevant[atom.relation.index()] = true;
        }
        let engine = kind
            .build(maintained, &self.db)
            .expect("admission pre-check guarantees the engine admits the query");
        let id = QueryId(self.regs.len());
        self.by_name.insert(name.to_string(), id.0);
        // Publish the genesis epoch: readers acquired before the first
        // update pin the seed state, stamped with the current stream
        // position and the query's footprint generation.
        let footprint_gen = footprint_generation(&relevant, &self.db);
        let snap: Arc<dyn ResultSnapshot> = Arc::from(engine.snapshot());
        let cell = Arc::new(EpochCell::new(Arc::new(Epoch {
            seq: self.seq,
            version: 0,
            generation: footprint_gen,
            snap,
        })));
        self.regs.push(Registered {
            name: Arc::from(name),
            query,
            classification,
            kind,
            reason,
            engine,
            relevant,
            footprint_gen,
            version: 0,
            cell,
            build_lock: Mutex::new(()),
            feed: Mutex::new(FeedState::default()),
            epoch_pubs: self
                .metrics
                .as_ref()
                .map(|m| Arc::clone(&m.epoch_publications)),
        });
        Ok(id)
    }

    /// Remaps `query` onto a *staged* copy of the session schema, grown
    /// with any relations the query introduces. Nothing on the session is
    /// mutated — the caller commits the staged schema only once the whole
    /// registration is known to succeed.
    fn adopt(&self, query: &Query) -> Result<(Schema, Query), CqError> {
        let theirs = query.schema();
        let mut staged = self.schema.clone();
        for rel in theirs.relations() {
            staged.intern(theirs.name(rel), theirs.arity(rel))?;
        }
        let mut b = QueryBuilder::with_schema(query.name(), staged.clone());
        for atom in query.atoms() {
            let args: Vec<_> = atom
                .args
                .iter()
                .map(|&v| b.var(query.var_name(v)))
                .collect();
            b.atom(theirs.name(atom.relation), &args)?;
        }
        let free: Vec<_> = query
            .free()
            .iter()
            .map(|&v| b.var(query.var_name(v)))
            .collect();
        Ok((staged, b.head(&free).build()?))
    }

    /// Looks up a registered query by name.
    pub fn query(&self, name: &str) -> Result<QueryHandle<'_>, CqError> {
        let &idx = self
            .by_name
            .get(name)
            .ok_or_else(|| CqError::UnknownQuery(name.to_string()))?;
        Ok(QueryHandle {
            reg: &self.regs[idx],
            id: QueryId(idx),
            seq: self.seq,
            generation: self.regs[idx].footprint_gen,
        })
    }

    /// Looks up a registered query by id.
    pub fn handle(&self, id: QueryId) -> QueryHandle<'_> {
        QueryHandle {
            reg: &self.regs[id.0],
            id,
            seq: self.seq,
            generation: self.regs[id.0].footprint_gen,
        }
    }

    /// Iterates over all registered queries, in registration order.
    pub fn queries(&self) -> impl Iterator<Item = QueryHandle<'_>> {
        self.regs
            .iter()
            .enumerate()
            .map(move |(i, reg)| QueryHandle {
                reg,
                id: QueryId(i),
                seq: self.seq,
                generation: reg.footprint_gen,
            })
    }

    /// Escape hatch: mutable access to the underlying engine of `name`,
    /// e.g. to drive it through the lower-bound reductions.
    pub fn engine_mut(&mut self, name: &str) -> Result<&mut dyn DynamicEngine, CqError> {
        let &idx = self
            .by_name
            .get(name)
            .ok_or_else(|| CqError::UnknownQuery(name.to_string()))?;
        // The caller may mutate the engine arbitrarily: stale any pin.
        self.regs[idx].touch();
        Ok(self.regs[idx].engine.as_mut())
    }

    /// Checks an update against the session schema.
    fn validate(&self, update: &Update) -> Result<(), CqError> {
        validate_update(&self.schema, update)
    }

    /// Routes one pre-validated update to the master database and every
    /// engine that can be concerned by it, forwarding engine-produced
    /// result deltas to subscribers (or to the open transaction's buffer).
    ///
    /// Delta extraction is the engine's business
    /// ([`DynamicEngine::apply_tracked`]): q-hierarchical, delta-IVM, and
    /// ϕ₂ engines produce deltas natively at O(δ) as a side product of
    /// their maintenance; only engines without
    /// [`DynamicEngine::delta_hint`] fall back to snapshot diffing, inside
    /// the engine layer. No result materialization happens here.
    fn dispatch(&mut self, update: &Update) -> bool {
        if !self.db.apply(update) {
            // Set-semantics no-op: no engine state can change either.
            return false;
        }
        // Rollback inverses do NOT draw sequence numbers: a rolled-back
        // transaction burns exactly its forward updates' numbers (which
        // cannot be returned once drawn — under a shared shard counter
        // other writers may already hold later ones) and nothing more.
        // Single-writer and sharded sessions share this dispatch, so both
        // paths burn identically by construction; `tests/sharded_session`
        // pins the equality.
        if !self.rolling_back {
            self.advance_seq(1);
            if let Some(m) = self.metrics.as_ref() {
                m.updates.inc();
            }
        }
        let in_tx = self.tx_buffer.is_some();
        // This update's relation was the database's latest effective
        // change, so for every query routed below (the relation is in
        // its footprint) the footprint max is exactly this counter —
        // O(1) maintenance, read once for the whole loop.
        let generation = self.db.generation();
        for (idx, reg) in self.regs.iter_mut().enumerate() {
            if !reg.wants(update.relation()) {
                continue;
            }
            // Every branch below mutates the engine: stale published
            // epochs (and with them all cached pins).
            reg.touch();
            reg.footprint_gen = generation;
            // Rollback replay needs no deltas — its buffer is discarded —
            // so it takes the untracked path even under subscription.
            if !self.rolling_back && reg.wants_deltas() {
                match self.tx_buffer.as_mut() {
                    Some(buf) if !reg.engine.delta_hint() => {
                        // Diff-fallback engine inside a transaction: one
                        // snapshot at first touch, one diff at commit,
                        // plain applies in between.
                        if matches!(buf[idx], TxTrack::Untouched) {
                            buf[idx] = TxTrack::Snapshot(reg.engine.results_sorted());
                        }
                        reg.engine.apply(update);
                    }
                    Some(buf) => {
                        if matches!(buf[idx], TxTrack::Untouched) {
                            buf[idx] = TxTrack::Native(ResultDelta::default());
                        }
                        let TxTrack::Native(acc) = &mut buf[idx] else {
                            unreachable!("native engines never snapshot")
                        };
                        reg.engine.apply_tracked(update, acc);
                    }
                    None => {
                        let mut delta = ResultDelta::default();
                        reg.engine.apply_tracked(update, &mut delta);
                        reg.publish(self.seq, delta);
                    }
                }
            } else {
                reg.engine.apply(update);
            }
            // Demand-driven epoch publication — but never inside an open
            // transaction (lock-free pins must not observe uncommitted
            // state; commit publishes) and never during rollback (the
            // pre-transaction epoch content is still exact).
            if !in_tx {
                reg.republish_on_demand(self.seq);
            }
        }
        true
    }

    /// Applies one update to every registered query; returns `true` iff
    /// the database changed.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        self.validate(update)?;
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let changed = self.dispatch(update);
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), start) {
            m.commit_latency_ns.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(changed)
    }

    /// Applies a batch of updates to every registered query, equivalent
    /// to applying them in order — but amortised: each engine receives
    /// the whole batch at once ([`DynamicEngine::apply_batch`]), so the
    /// dynamic engine nets out cancelling updates and groups by relation.
    ///
    /// All-or-nothing: the batch is validated up front and nothing is
    /// applied if any update is malformed. Subscribers see one
    /// [`ChangeEvent`] per query with the batch's net result delta.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<UpdateReport, CqError> {
        for u in updates {
            self.validate(u)?;
        }
        Ok(self.apply_batch_prevalidated(updates))
    }

    /// The batch path after validation — also the entry point for a
    /// multi-shard batch, which validates every member under the shard
    /// locks before any shard applies its part.
    pub(crate) fn apply_batch_prevalidated(&mut self, updates: &[Update]) -> UpdateReport {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        // Only updates that change the master database can concern any
        // engine: set-semantics no-ops are dropped here, so an engine
        // whose relations saw only no-ops is skipped entirely — no batch
        // call, no delta extraction, no (empty) publish. The common
        // all-effective batch stays zero-copy (`kept` only materializes
        // once the first no-op appears).
        let mut kept: Option<Vec<Update>> = None;
        for (i, u) in updates.iter().enumerate() {
            match (self.db.apply(u), &mut kept) {
                (true, None) => {}
                (true, Some(v)) => v.push(u.clone()),
                (false, None) => kept = Some(updates[..i].to_vec()),
                (false, Some(_)) => {}
            }
        }
        let effective: &[Update] = kept.as_deref().unwrap_or(updates);
        let applied = effective.len();
        if applied == 0 {
            return UpdateReport {
                total: updates.len(),
                applied: 0,
            };
        }
        // Each effective member advances the stream position, exactly as
        // if applied singly — so a snapshot's `seq()` always counts
        // effective updates, batched or not — but subscribers still get
        // one netted event, stamped with the last member's number.
        self.advance_seq(applied as u64);
        let mut filtered: Vec<Update> = Vec::new();
        for reg in &mut self.regs {
            // Zero-copy when every effective update concerns this query;
            // otherwise route the relevant subset (possibly empty).
            let routed: &[Update] = if effective.iter().all(|u| reg.wants(u.relation())) {
                effective
            } else {
                filtered.clear();
                filtered.extend(
                    effective
                        .iter()
                        .filter(|u| reg.wants(u.relation()))
                        .cloned(),
                );
                &filtered
            };
            if routed.is_empty() {
                continue;
            }
            reg.touch();
            // The batch's routed members include the most recent
            // effective change to any footprint relation, so their max
            // per-relation stamp is the new footprint generation.
            reg.footprint_gen = routed
                .iter()
                .map(|u| self.db.relation_generation(u.relation()))
                .max()
                .expect("routed is nonempty");
            if reg.wants_deltas() {
                let mut delta = ResultDelta::default();
                reg.engine.apply_batch_tracked(routed, &mut delta);
                reg.publish(self.seq, delta);
            } else {
                reg.engine.apply_batch(routed);
            }
            // One epoch publication per batch, stamped with the batch's
            // final stream position (a transaction cannot be open here:
            // it holds the session `&mut`).
            reg.republish_on_demand(self.seq);
        }
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), start) {
            m.batches.inc();
            m.updates.add(applied as u64);
            m.commit_latency_ns.record(t0.elapsed().as_nanos() as u64);
        }
        UpdateReport {
            total: updates.len(),
            applied,
        }
    }

    /// Starts an all-or-nothing transaction over the whole session.
    ///
    /// Updates applied through the guard take effect immediately (reads
    /// through [`Session::query`] are impossible while it borrows the
    /// session); unless [`SessionTransaction::commit`] is called,
    /// dropping the guard rolls every effective update back via
    /// [`Update::inverse`], across the master database and every engine.
    ///
    /// Subscriber events are **buffered**: during the transaction each
    /// query's deltas accumulate and net out; `commit` emits at most one
    /// [`ChangeEvent`] per query with the transaction's net result delta,
    /// and a rollback emits nothing at all (the buffer is discarded and
    /// the inverse replay skips delta extraction entirely).
    pub fn transaction(&mut self) -> SessionTransaction<'_> {
        debug_assert!(self.tx_buffer.is_none(), "transactions cannot nest");
        if let Some(m) = self.metrics.as_ref() {
            m.transactions.inc();
        }
        self.tx_buffer = Some(vec![TxTrack::Untouched; self.regs.len()]);
        SessionTransaction {
            session: self,
            effective: Vec::new(),
            committed: false,
        }
    }

    /// Emits the buffered per-query net events of a committing
    /// transaction and closes the buffer.
    fn flush_tx_buffer(&mut self) {
        if let Some(buf) = self.tx_buffer.take() {
            for (reg, track) in self.regs.iter().zip(buf) {
                let delta = match track {
                    TxTrack::Untouched => continue,
                    // Feeds can detach mid-transaction (Subscription is
                    // owned independently of the session borrow): skip
                    // the commit diff and publish outright then — unless
                    // a retention ring still wants the net event.
                    _ if !reg.wants_deltas() => continue,
                    TxTrack::Native(delta) => delta,
                    TxTrack::Snapshot(before) => {
                        let mut delta = ResultDelta::default();
                        cqu_dynamic::diff_sorted_into(
                            &before,
                            &reg.engine.results_sorted(),
                            &mut delta,
                        );
                        delta
                    }
                };
                if !delta.is_empty() {
                    reg.publish(self.seq, delta);
                }
            }
            // Epoch publication was deferred while the transaction was
            // open (pins must not see uncommitted state): satisfy pending
            // refresh requests now that the state is committed.
            for reg in &self.regs {
                reg.republish_on_demand(self.seq);
            }
        }
    }
}

impl ApplyUpdate for Session {
    /// Pre-validated routing — e.g. for driving a session through a bare
    /// [`cqu_storage::Transaction`]; panics on malformed updates
    /// (validate first).
    fn apply_update(&mut self, update: &Update) -> bool {
        self.dispatch(update)
    }
}

/// An all-or-nothing update batch over a [`Session`]
/// (see [`Session::transaction`]).
pub struct SessionTransaction<'a> {
    session: &'a mut Session,
    /// Effective updates, in order, for reverse rollback.
    effective: Vec<Update>,
    committed: bool,
}

impl SessionTransaction<'_> {
    /// Validates and applies one update inside the transaction; returns
    /// `true` iff it was effective. A validation error leaves the
    /// transaction open — the caller decides whether to commit the
    /// prefix or drop the guard to roll it back.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        self.session.validate(update)?;
        let changed = self.session.dispatch(update);
        if changed {
            self.effective.push(update.clone());
        }
        Ok(changed)
    }

    /// Applies a sequence of updates, stopping at the first malformed
    /// one. On error the transaction is left open (drop it to roll back).
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, CqError> {
        let mut applied = 0;
        for u in updates {
            if self.apply(u)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Number of effective updates so far.
    pub fn effective_len(&self) -> usize {
        self.effective.len()
    }

    /// Keeps the transaction's effects and emits one net [`ChangeEvent`]
    /// per query whose result changed; returns how many updates were
    /// effective.
    pub fn commit(mut self) -> usize {
        self.committed = true;
        let n = self.effective.len();
        self.session.flush_tx_buffer();
        n
    }

    /// Rolls back everything applied so far (same as dropping the guard).
    /// Subscribers see nothing: the buffered deltas cancel.
    pub fn rollback(self) {}
}

impl Drop for SessionTransaction<'_> {
    fn drop(&mut self) {
        if !self.committed {
            if let Some(m) = self.session.metrics.as_ref() {
                m.rollbacks.inc();
            }
            // Replay inverses in reverse order with delta tracking
            // suppressed: the buffered deltas are discarded wholesale, so
            // nothing is published and no extraction work is done.
            self.session.rolling_back = true;
            for u in self.effective.drain(..).rev() {
                let undone = self.session.dispatch(&u.inverse());
                debug_assert!(undone, "rollback of an effective update must be effective");
            }
            self.session.rolling_back = false;
            self.session.tx_buffer = None;
        }
        debug_assert!(self.session.tx_buffer.is_none());
    }
}

/// Read access to one registered query (see [`Session::query`]).
#[derive(Clone, Copy)]
pub struct QueryHandle<'a> {
    reg: &'a Registered,
    id: QueryId,
    /// The session's update sequence number when this handle was taken —
    /// stamped onto snapshots pinned through it.
    seq: u64,
    /// The query's footprint generation (max per-relation storage stamp
    /// over its relevant relations) when this handle was taken.
    generation: u64,
}

impl<'a> QueryHandle<'a> {
    /// The session-stable id of this query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The name the query was registered under.
    pub fn name(&self) -> &'a str {
        &self.reg.name
    }

    /// The query, remapped onto the session schema.
    pub fn query(&self) -> &'a Query {
        &self.reg.query
    }

    /// The engine maintaining this query.
    pub fn kind(&self) -> EngineKind {
        self.reg.kind
    }

    /// Why the router picked [`QueryHandle::kind`].
    pub fn route_reason(&self) -> RouteReason {
        self.reg.reason
    }

    /// The dichotomy classifier's verdicts for this query.
    pub fn classification(&self) -> &'a Classification {
        &self.reg.classification
    }

    /// `|ϕ(D)|` — O(1) on the dynamic engine.
    pub fn count(&self) -> u64 {
        self.reg.engine.count()
    }

    /// `ϕ(D) ≠ ∅` — the Boolean answer.
    pub fn answer(&self) -> bool {
        self.reg.engine.answer()
    }

    /// Enumerates `ϕ(D)` without repetition — constant delay on the
    /// dynamic engine.
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Tuple> + 'a> {
        self.reg.engine.enumerate()
    }

    /// Collects and sorts the full result.
    pub fn results_sorted(&self) -> Vec<Tuple> {
        self.reg.engine.results_sorted()
    }

    /// Pins an immutable, `Send + Sync` [`QuerySnapshot`] of the current
    /// result. The snapshot keeps answering from the pinned state while
    /// any number of later updates commit — snapshot isolation for
    /// readers, without holding up the writer.
    ///
    /// Cost model (epoch publication): pinning loads the published epoch
    /// — an atomic load plus an `Arc` clone, O(1). If the epoch lags the
    /// engine state (first pin after an update), this locked path
    /// rebuilds and republishes it first: O(components) `Arc` clones on
    /// the q-hierarchical engine (the old `O(‖D‖)` structure clone is
    /// gone — the writer copy-on-writes instead), `O(|ϕ(D)|)` view
    /// clones on delta-IVM and the diff fallbacks.
    pub fn snapshot(&self) -> QuerySnapshot {
        let epoch = self.reg.pinned(self.seq, self.generation);
        QuerySnapshot {
            name: Arc::clone(&self.reg.name),
            kind: self.reg.kind,
            seq: self.seq,
            generation: self.generation,
            inner: Arc::clone(&epoch.snap),
        }
    }

    /// Acquires a [`PinReader`]: a cloneable, `Send + Sync` endpoint that
    /// pins epoch snapshots of this query in O(1) — a single atomic load
    /// — without ever taking a session lock again. Acquire once (under
    /// whatever lock guards the session), then pin from any number of
    /// reader threads forever.
    pub fn pin_reader(&self) -> PinReader {
        PinReader {
            name: Arc::clone(&self.reg.name),
            kind: self.reg.kind,
            cell: Arc::clone(&self.reg.cell),
        }
    }

    /// Opens a change feed: after every effective update or batch that
    /// changes this query's result, a [`ChangeEvent`] with the added and
    /// removed result tuples is delivered. Inside a transaction, events
    /// are buffered and emitted once, netted, at commit.
    ///
    /// Every subscriber receives the *same* `Arc<ChangeEvent>` per
    /// update: fan-out costs one channel send per subscriber, never a
    /// payload clone.
    ///
    /// Cost model: engines with native delta extraction
    /// ([`DynamicEngine::delta_hint`] — the q-hierarchical engine,
    /// delta-IVM, and ϕ₂) publish at `O(δ)` per update on top of their
    /// ordinary maintenance work, independent of `|ϕ(D)|`. Engines
    /// without it (recompute, semi-join) pay a full result enumeration
    /// and diff per update while subscribed.
    pub fn subscribe(&self) -> Subscription {
        let (tx, rx) = channel();
        let alive = Arc::new(());
        lock(&self.reg.feed).subs.push(Subscriber {
            sink: Sink::Channel(tx),
            alive: Arc::downgrade(&alive),
        });
        Subscription { rx, _alive: alive }
    }

    /// Opens a **bounded** change feed holding at most `cap` pending
    /// events. When the consumer lags, the session coalesces: the
    /// pending events plus the new one are netted
    /// ([`cqu_dynamic::ResultDelta::normalize`]-style multiset
    /// cancellation) into a single exact catch-up event stamped with the
    /// newest seq. The writer never blocks and the feed never holds more
    /// than `cap` events — a stalled consumer costs O(cap) memory, not
    /// OOM (the failure mode of an unbounded [`QueryHandle::subscribe`]
    /// feed under a dead reader thread).
    ///
    /// [`BoundedSubscription::coalesced`] counts how often the policy
    /// fired; a netted catch-up event may have empty `added`/`removed`
    /// when the changes cancelled, which still advances the consumer's
    /// cursor to its `seq`.
    pub fn subscribe_bounded(&self, cap: usize) -> BoundedSubscription {
        let queue = Arc::new(BoundedQueue::new(cap));
        let alive = Arc::new(());
        lock(&self.reg.feed).subs.push(Subscriber {
            sink: Sink::Bounded(Arc::clone(&queue)),
            alive: Arc::downgrade(&alive),
        });
        BoundedSubscription {
            queue,
            _alive: alive,
        }
    }

    /// Enables (or resizes) **delta retention** on this query: the last
    /// `cap` published [`ChangeEvent`]s are kept in a seq-keyed ring so
    /// a consumer that detached at seq `N` can later resume with
    /// [`QueryHandle::subscribe_from`] / [`QueryHandle::replay_since`]
    /// and receive the netted delta `N → now` instead of a full
    /// snapshot. Retention makes the write path extract deltas even
    /// with zero live subscribers (the ring must not miss events);
    /// its memory is bounded by `cap` events.
    ///
    /// Growing `cap` keeps the retained events; shrinking evicts the
    /// oldest (raising the resume floor). The serving layer enables this
    /// on every query it exposes.
    pub fn retain_deltas(&self, cap: usize) {
        let mut feed = lock(&self.reg.feed);
        match feed.ring.as_mut() {
            Some(ring) => ring.resize(cap),
            // Coverage starts *now*: a cursor at the current seq needs
            // exactly the events published after this call, all of which
            // the ring will see.
            None => feed.ring = Some(SeqRing::new(cap, self.seq)),
        }
    }

    /// The retention ring's coverage floor — the smallest cursor
    /// [`QueryHandle::replay_since`] can serve — or `None` when
    /// retention is disabled.
    pub fn retention_floor(&self) -> Option<u64> {
        lock(&self.reg.feed).ring.as_ref().map(|r| r.floor())
    }

    /// Nets the retained delta stream after `from_seq` into at most one
    /// catch-up event — the replay half of cursor resumption, without
    /// opening a feed (the serving layer runs its own fan-out and calls
    /// this per reconnecting client).
    pub fn replay_since(&self, from_seq: u64) -> ReplayOutcome {
        let feed = lock(&self.reg.feed);
        let Some(ring) = feed.ring.as_ref() else {
            return ReplayOutcome::Unavailable { floor: None };
        };
        if !ring.covers(from_seq) {
            return ReplayOutcome::Unavailable {
                floor: Some(ring.floor()),
            };
        }
        let events: Vec<&ChangeEvent> = ring.since(from_seq).map(|(_, e)| &**e).collect();
        let upto = from_seq.max(ring.head());
        if events.is_empty() {
            return ReplayOutcome::Covered { upto, event: None };
        }
        let mut event = net_events(events);
        // The catch-up covers the whole retained span, whatever the seq
        // of the last non-empty constituent was.
        event.seq = upto;
        let event = (!event.added.is_empty() || !event.removed.is_empty()).then_some(event);
        ReplayOutcome::Covered { upto, event }
    }

    /// Resumes a change feed from a cursor: the returned [`Resume`]
    /// either carries the netted catch-up delta `from_seq → now` (when
    /// the retention ring still covers `from_seq`) or a full
    /// [`QuerySnapshot`] to resync from, plus in both cases a live
    /// [`Subscription`] attached atomically with the replay — no event
    /// can fall between the catch-up and the feed. Events the feed
    /// re-delivers from the overlap window carry `seq` ≤ the resume
    /// cursor and must be skipped (they are already folded in).
    pub fn subscribe_from(&self, from_seq: u64) -> Resume {
        // Replay and attach need no joint lock: this handle's shared
        // session borrow excludes every writer, so no event can be
        // published between the two calls — the catch-up and the feed
        // are a consistent cut of the event stream.
        let replay = self.replay_since(from_seq);
        let feed = self.subscribe();
        match replay {
            ReplayOutcome::Covered { upto, event } => Resume::Resumed {
                cursor: upto,
                catch_up: event,
                feed,
            },
            ReplayOutcome::Unavailable { .. } => Resume::Resync {
                snapshot: self.snapshot(),
                feed,
            },
        }
    }

    /// Number of live subscriptions on this query (dropped feeds are
    /// pruned first).
    pub fn subscriber_count(&self) -> usize {
        self.reg.prune_subscribers()
    }
}

/// An immutable, `Send + Sync` view of one query's result, pinned at a
/// point of the update stream ([`QueryHandle::snapshot`]).
///
/// Cloning is O(1) (the pinned state is shared behind an `Arc`); ship
/// clones to as many reader threads as needed. On the dynamic engine a
/// snapshot still counts in O(1) and enumerates with constant delay.
#[derive(Clone)]
pub struct QuerySnapshot {
    name: Arc<str>,
    kind: EngineKind,
    seq: u64,
    generation: u64,
    inner: Arc<dyn ResultSnapshot>,
}

impl QuerySnapshot {
    /// The name of the query this snapshot was pinned from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine kind that produced the pinned state.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The session update sequence number at pin time: this snapshot
    /// reflects exactly the first `seq()` effective update commands the
    /// session dispatched — batch members count individually; a
    /// rolled-back transaction burns its forward updates' numbers
    /// without publishing the states they numbered (see
    /// [`Session::seq`]), so those positions never appear on a pin.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The query's storage-level **footprint generation** at pin time:
    /// the max [`cqu_storage::Database::relation_generation`] over the
    /// relations the maintained query references. Monotone, and it moves
    /// *only* when one of this query's relations changes — updates to
    /// foreign relations (other queries in the session, other shards of
    /// a [`crate::shard::ShardedSession`]) leave it untouched, so two
    /// snapshots of one query with equal stamps pin identical states
    /// even when the rest of the database churned between them.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether two snapshots share the same pinned state allocation —
    /// `true` exactly when both were pinned from the same published
    /// epoch (e.g. repeated pins with no intervening update). O(1).
    pub fn shares_state_with(&self, other: &QuerySnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Diagnostic: how many references (this snapshot, its clones, other
    /// snapshots of the same epoch, and the publication cell while the
    /// epoch is current) keep the pinned state alive. Dropping the last
    /// one frees the epoch — leak tests observe exactly that.
    pub fn state_refs(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// `|ϕ(D)|` at pin time.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// `ϕ(D) ≠ ∅` at pin time.
    pub fn answer(&self) -> bool {
        self.inner.is_nonempty()
    }

    /// Enumerates the pinned result without repetition.
    pub fn enumerate(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        self.inner.enumerate()
    }

    /// Collects and sorts the pinned result.
    pub fn results_sorted(&self) -> Vec<Tuple> {
        self.inner.results_sorted()
    }
}

impl std::fmt::Debug for QuerySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySnapshot")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("seq", &self.seq)
            .field("generation", &self.generation)
            .field("count", &self.count())
            .finish()
    }
}

/// A lock-free pin endpoint for one registered query (see
/// [`QueryHandle::pin_reader`] / [`SharedSession::reader`]).
///
/// `PinReader` is the serving-path complement of [`QueryHandle`]: where a
/// handle borrows the session (and, through [`SharedSession`], holds its
/// read lock), a `PinReader` owns a reference to the query's epoch
/// publication cell and nothing else. [`PinReader::pin`] is a single
/// atomic load — it never takes the session lock, so pins complete even
/// while a writer (or an open transaction) holds it exclusively, and it
/// never blocks the writer in return.
///
/// **Freshness.** A pin returns the most recently *published* epoch.
/// Engines with cheap snapshots (the q-hierarchical engine) republish
/// on demand after every update a pin observed as missing, so the lag is
/// at most one update behind the writer. Fallback engines with
/// `Ω(|view|)` snapshots (delta-IVM) republish only on the locked pin
/// path ([`QueryHandle::snapshot`]) — a lock-free pin may then lag until
/// someone pins through the lock. Every pin, however stale, is
/// internally exact: its result *is* `timeline[pin.seq()]`.
#[derive(Clone)]
pub struct PinReader {
    name: Arc<str>,
    kind: EngineKind,
    cell: Arc<EpochCell<Epoch>>,
}

impl PinReader {
    /// The name of the query this reader pins.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine kind maintaining the query.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Pins the published epoch: one atomic load plus an `Arc` clone,
    /// O(1) in the database, the result, and the number of concurrent
    /// readers. Never touches any lock; never waits for the writer.
    ///
    /// If the epoch lags the live engine state, a refresh request is
    /// raised so the writer (or the next locked pin) republishes — the
    /// pin itself still returns immediately with the current epoch.
    pub fn pin(&self) -> QuerySnapshot {
        let epoch = self.cell.load();
        if epoch.version != self.cell.live_version() {
            self.cell.request_refresh();
        }
        QuerySnapshot {
            name: Arc::clone(&self.name),
            kind: self.kind,
            seq: epoch.seq,
            generation: epoch.generation,
            inner: Arc::clone(&epoch.snap),
        }
    }
}

impl std::fmt::Debug for PinReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinReader")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A cloneable, thread-safe handle to a [`Session`]: writers serialize
/// through an internal `RwLock`, readers pin [`QuerySnapshot`]s and get
/// out of the writer's way immediately.
///
/// ```
/// use cq_updates::prelude::*;
/// use std::thread;
///
/// let mut session = Session::new();
/// session.register("pairs", "Q(x, y) :- E(x, y), T(y).").unwrap();
/// let e = session.relation("E").unwrap();
/// let t = session.relation("T").unwrap();
/// let shared = SharedSession::new(session);
///
/// let writer = {
///     let shared = shared.clone();
///     thread::spawn(move || {
///         shared.apply(&Update::Insert(e, vec![1, 2])).unwrap();
///         shared.apply(&Update::Insert(t, vec![2])).unwrap();
///     })
/// };
/// writer.join().unwrap();
/// let snap = shared.snapshot("pairs").unwrap();
/// assert_eq!(snap.count(), 1);
/// ```
#[derive(Clone)]
pub struct SharedSession {
    inner: Arc<RwLock<Session>>,
}

impl SharedSession {
    /// Wraps a session for shared multi-threaded use.
    pub fn new(session: Session) -> SharedSession {
        SharedSession {
            inner: Arc::new(RwLock::new(session)),
        }
    }

    /// Runs a closure with shared read access. Prefer
    /// [`SharedSession::snapshot`] for anything longer than a couple of
    /// O(1) reads — snapshots release the lock immediately.
    ///
    /// Errors with [`CqError::Poisoned`] if a writer panicked mid-update
    /// (engine state can no longer be trusted).
    pub fn read<R>(&self, f: impl FnOnce(&Session) -> R) -> Result<R, CqError> {
        Ok(f(&*self.read_lock()?))
    }

    /// Runs a closure with exclusive write access (the serialized writer
    /// path). Errors with [`CqError::Poisoned`] if a previous writer
    /// panicked mid-update.
    pub fn write<R>(&self, f: impl FnOnce(&mut Session) -> R) -> Result<R, CqError> {
        Ok(f(&mut *self.write_lock()?))
    }

    /// The read guard itself, for callers that hold several sessions'
    /// locks at once (the shard layer's consistent cuts).
    pub(crate) fn read_lock(&self) -> Result<RwLockReadGuard<'_, Session>, CqError> {
        self.inner.read().map_err(|_| CqError::Poisoned)
    }

    /// The write guard itself (multi-shard commits lock in canonical
    /// order and hold every guard until the last shard committed).
    pub(crate) fn write_lock(&self) -> Result<RwLockWriteGuard<'_, Session>, CqError> {
        self.inner.write().map_err(|_| CqError::Poisoned)
    }

    /// Parses and registers a query, classifier-routed
    /// (see [`Session::register`]).
    pub fn register(&self, name: &str, src: &str) -> Result<QueryId, CqError> {
        self.write(|s| s.register(name, src))?
    }

    /// Parses and registers a query with an explicit engine choice
    /// (see [`Session::register_with`]).
    pub fn register_with(
        &self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, CqError> {
        self.write(|s| s.register_with(name, src, choice))?
    }

    /// Applies one update through the serialized writer path
    /// (see [`Session::apply`]).
    pub fn apply(&self, update: &Update) -> Result<bool, CqError> {
        self.write(|s| s.apply(update))?
    }

    /// Applies a batch through the serialized writer path
    /// (see [`Session::apply_batch`]).
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, CqError> {
        self.write(|s| s.apply_batch(updates))?
    }

    /// Runs `f` inside an all-or-nothing transaction: committed when `f`
    /// returns `Ok`, rolled back (and the error forwarded) when it
    /// returns `Err`. See [`Session::transaction`].
    pub fn transaction<R>(
        &self,
        f: impl FnOnce(&mut SessionTransaction<'_>) -> Result<R, CqError>,
    ) -> Result<R, CqError> {
        let mut guard = self.write_lock()?;
        let mut txn = guard.transaction();
        match f(&mut txn) {
            Ok(r) => {
                txn.commit();
                Ok(r)
            }
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    }

    /// Resolves a relation by name (see [`Session::relation`]).
    pub fn relation(&self, name: &str) -> Result<RelId, CqError> {
        self.read(|s| s.relation(name))?
    }

    /// Pins a snapshot of `name`'s current result and releases the read
    /// lock before returning — the caller enumerates lock-free while the
    /// writer proceeds. See [`QueryHandle::snapshot`].
    pub fn snapshot(&self, name: &str) -> Result<QuerySnapshot, CqError> {
        self.read(|s| s.query(name).map(|h| h.snapshot()))?
    }

    /// Acquires a lock-free [`PinReader`] on `name`: takes the read lock
    /// once, then every [`PinReader::pin`] is a single atomic load that
    /// bypasses this session's `RwLock` entirely — pins complete even
    /// while a writer or transaction holds it. Acquire readers up front
    /// (like prepared statements) and hand clones to serving threads.
    pub fn reader(&self, name: &str) -> Result<PinReader, CqError> {
        self.read(|s| s.query(name).map(|h| h.pin_reader()))?
    }

    /// Opens a change feed on `name` (see [`QueryHandle::subscribe`]).
    pub fn subscribe(&self, name: &str) -> Result<Subscription, CqError> {
        self.read(|s| s.query(name).map(|h| h.subscribe()))?
    }

    /// Opens a bounded, lag-coalescing change feed on `name`
    /// (see [`QueryHandle::subscribe_bounded`]).
    pub fn subscribe_bounded(
        &self,
        name: &str,
        cap: usize,
    ) -> Result<BoundedSubscription, CqError> {
        self.read(|s| s.query(name).map(|h| h.subscribe_bounded(cap)))?
    }

    /// Enables (or resizes) delta retention on `name`
    /// (see [`QueryHandle::retain_deltas`]).
    pub fn retain_deltas(&self, name: &str, cap: usize) -> Result<(), CqError> {
        self.read(|s| s.query(name).map(|h| h.retain_deltas(cap)))?
    }

    /// Resumes a change feed on `name` from a cursor; the replay and the
    /// feed attachment happen under one read guard, so no event falls
    /// between them (see [`QueryHandle::subscribe_from`]).
    pub fn subscribe_from(&self, name: &str, from_seq: u64) -> Result<Resume, CqError> {
        self.read(|s| s.query(name).map(|h| h.subscribe_from(from_seq)))?
    }

    /// O(1) count of `name`'s current result.
    pub fn count(&self, name: &str) -> Result<u64, CqError> {
        self.read(|s| s.query(name).map(|h| h.count()))?
    }

    /// Recovers the owned [`Session`] if this is the last handle.
    ///
    /// Returns `Err(self)` while other handles are alive — and also when
    /// the lock is poisoned: a panicked writer may have left engines
    /// half-updated, so the suspect state stays quarantined behind the
    /// handle (whose every access keeps reporting [`CqError::Poisoned`])
    /// instead of being laundered into an apparently healthy `Session`.
    pub fn try_unwrap(self) -> Result<Session, SharedSession> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) if lock.is_poisoned() => Err(SharedSession {
                inner: Arc::new(lock),
            }),
            Ok(lock) => Ok(lock
                .into_inner()
                .expect("exclusively owned and checked unpoisoned")),
            Err(inner) => Err(SharedSession { inner }),
        }
    }
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("handles", &Arc::strong_count(&self.inner))
            .finish_non_exhaustive()
    }
}

/// Compile-time thread-safety contract of the session layer (the
/// tentpole guarantee: sessions cross threads, snapshots and feeds fan
/// out to reader threads).
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn send_sync<T: Send + Sync>() {}
    fn send<T: Send>() {}
    send_sync::<Session>();
    send_sync::<SharedSession>();
    send_sync::<QuerySnapshot>();
    send_sync::<PinReader>();
    send_sync::<ChangeEvent>();
    send::<Subscription>();
    send::<BoundedSubscription>();
}

/// Checks one update against a schema: the relation id must exist and
/// the tuple width must match its arity. Shared by [`Session`] and the
/// shard router (which must validate *before* it can even pick a shard).
pub(crate) fn validate_update(schema: &Schema, update: &Update) -> Result<(), CqError> {
    let rel = update.relation();
    if rel.index() >= schema.len() {
        return Err(CqError::UnknownRelationId(rel.0));
    }
    let expected = schema.arity(rel);
    if update.tuple().len() != expected {
        return Err(CqError::Arity {
            relation: schema.name(rel).to_string(),
            expected,
            found: update.tuple().len(),
        });
    }
    Ok(())
}

/// The admission pre-check for the chosen engine: the dynamic engine
/// requires q-hierarchy (Definition 3.1); the baselines admit every CQ.
/// Checked *before* the session commits any state for a registration.
fn admission_violation(kind: EngineKind, maintained: &Query) -> Option<Violation> {
    match kind {
        EngineKind::QHierarchical => q_hierarchical_violation(maintained),
        _ => None,
    }
}

/// The classifier-driven routing decision.
fn route(
    query: &Query,
    classification: &Classification,
    choice: EngineChoice,
) -> (EngineKind, RouteReason) {
    match choice {
        EngineChoice::Forced(kind) => (kind, RouteReason::Forced),
        EngineChoice::Auto => match &classification.enumeration {
            Verdict::Tractable { .. } => {
                if classification.core.atoms().len() == query.atoms().len() {
                    (EngineKind::QHierarchical, RouteReason::QHierarchical)
                } else {
                    // Chandra–Merlin: core(ϕ)(D) = ϕ(D); maintain the core.
                    (EngineKind::QHierarchical, RouteReason::QHierarchicalCore)
                }
            }
            // Hard (Theorems 3.3–3.5) or open: delta-IVM keeps requests
            // O(1) and pays in the updates, the trade the ROADMAP's
            // read-heavy service shape wants.
            _ => (EngineKind::DeltaIvm, RouteReason::Fallback),
        },
    }
}
