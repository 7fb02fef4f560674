//! Glue between the engine and the network: one [`FeedSource`] over
//! any [`ShardedSession`], its two public forms, a replica source and a
//! convenience launcher.
//!
//! The serving stack is layered so `cqu-serve` stays engine-agnostic:
//! the server runtime talks to a [`FeedSource`] of wire-level rows
//! (`Vec<u64>` — type-identical to the engine's `Tuple`, so conversion
//! is a clone, never a re-encoding), and this module adapts the session
//! layer to that contract. [`Served`] is the one adapter: snapshots pin
//! epochs, feeds subscribe, and replay nets the per-query retention
//! ring ([`QueryHandle::retain_deltas`](crate::session::QueryHandle::retain_deltas)
//! is enabled on every query). It comes in two forms that differ only
//! in registration:
//!
//! * [`SessionSource`] serves a [`SharedSession`] through the open
//!   one-shard form, so clients may register new queries remotely.
//! * [`ShardedSource`] serves a sealed [`ShardedSession`] on the
//!   *global* seq timeline; registration is rejected (the shard plan
//!   is sealed at build time).
//!
//! ```no_run
//! use cq_updates::prelude::*;
//! use std::sync::Arc;
//!
//! let session = SharedSession::new(Session::new());
//! session.register("feed", "Feed(u, v, p) :- Follows(u, v), Posts(v, p).").unwrap();
//! let source = Arc::new(SessionSource::new(session.clone(), 1024).unwrap());
//! let server = ServerHandle::bind("127.0.0.1:0", source).unwrap();
//! println!("serving on {}", server.local_addr());
//! ```

use crate::error::CqError;
use crate::session::{ChangeEvent, ReplayOutcome, SharedSession, Subscription};
use crate::shard::ShardedSession;
use cqu_serve::server::{FeedDelta, FeedPoll, FeedSource, FeedStream, Replay, SourceError};
use cqu_serve::{Row, ServeConfig, Server};
use std::net::ToSocketAddrs;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

pub use cqu_serve::server::ServerStats;
pub use cqu_serve::{Client, ClientError, Frame, LagPolicy, Mirror, SubscribeMode};

fn source_err(e: CqError) -> SourceError {
    match e {
        CqError::UnknownQuery(name) => SourceError::UnknownQuery(name),
        CqError::DuplicateQuery(name) => SourceError::Invalid(format!("duplicate query {name:?}")),
        other => SourceError::Invalid(other.to_string()),
    }
}

fn to_delta(event: &ChangeEvent) -> FeedDelta {
    FeedDelta {
        seq: event.seq,
        added: event.added.clone(),
        removed: event.removed.clone(),
    }
}

fn to_replay(outcome: ReplayOutcome) -> Replay {
    match outcome {
        ReplayOutcome::Covered { upto, event } => Replay::Netted {
            upto,
            delta: event.map(|e| to_delta(&e)),
        },
        ReplayOutcome::Unavailable { floor } => Replay::Evicted {
            // Retention disabled: no cursor is ever servable.
            floor: floor.unwrap_or(u64::MAX),
        },
    }
}

/// A [`Subscription`] as a serving feed: converts each
/// `Arc<ChangeEvent>` into a wire [`FeedDelta`] — one row-clone per
/// commit per query server-wide, since the server opens exactly one
/// feed per query.
struct SubscriptionFeed(Subscription);

impl FeedStream for SubscriptionFeed {
    fn recv_timeout(&mut self, timeout: Duration) -> FeedPoll {
        match self.0.recv_timeout_raw(timeout) {
            Ok(event) => FeedPoll::Event(to_delta(&event)),
            Err(RecvTimeoutError::Timeout) => FeedPoll::Empty,
            Err(RecvTimeoutError::Disconnected) => FeedPoll::Closed,
        }
    }
}

/// The serving adapter behind [`SessionSource`] and [`ShardedSource`]:
/// one [`FeedSource`] over a [`ShardedSession`], holding the caller's
/// handle `H` for [`Served::session`]. Delta retention (`ring_cap`
/// events per query) is on for every query, including any registered
/// later — locally or by a remote `Register` frame, which only the open
/// one-shard form behind a [`SessionSource`] accepts.
pub struct Served<H> {
    handle: H,
    session: ShardedSession,
    ring_cap: usize,
    /// The sealed query set ([`ShardedSource::names`]); empty on the
    /// open form.
    names: Vec<String>,
}

/// Serves a [`SharedSession`]: snapshots pin epochs, feeds subscribe,
/// replay nets the retention rings, and clients may register new
/// queries remotely.
pub type SessionSource = Served<SharedSession>;

/// Serves a [`ShardedSession`]: per-query feeds, snapshots, and replay
/// all work on the shared **global** timeline, so a client cannot tell
/// a sharded deployment from a single-writer one. Remote registration
/// is rejected — the shard plan is sealed at build time.
pub type ShardedSource = Served<Arc<ShardedSession>>;

impl<H> Served<H> {
    fn wrap(handle: H, session: ShardedSession, ring_cap: usize) -> Result<Served<H>, CqError> {
        session.retain_all_deltas(ring_cap)?;
        let names = session
            .plan()
            .shards()
            .iter()
            .flat_map(|s| s.queries().iter().cloned())
            .collect();
        Ok(Served {
            handle,
            session,
            ring_cap,
            names,
        })
    }

    /// The wrapped session handle.
    pub fn session(&self) -> &H {
        &self.handle
    }
}

impl SessionSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each of its queries.
    pub fn new(session: SharedSession, ring_cap: usize) -> Result<SessionSource, CqError> {
        let core = ShardedSession::single(session.clone())?;
        Served::wrap(session, core, ring_cap)
    }
}

impl ShardedSource {
    /// Wraps `session` for serving, enabling delta retention of
    /// `ring_cap` events on each query.
    pub fn new(session: Arc<ShardedSession>, ring_cap: usize) -> Result<ShardedSource, CqError> {
        let core = (*session).clone();
        Served::wrap(session, core, ring_cap)
    }

    /// The served query names.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl<H: Send + Sync + 'static> FeedSource for Served<H> {
    fn seq(&self) -> u64 {
        self.session.seq()
    }

    fn register(&self, name: &str, src: &str) -> Result<u64, SourceError> {
        let Some(shard) = self.session.single_shard() else {
            return Err(SourceError::Unsupported(
                "a sharded session's query set is sealed at build time".into(),
            ));
        };
        shard.register(name, src).map_err(source_err)?;
        shard
            .retain_deltas(name, self.ring_cap)
            .map_err(source_err)?;
        Ok(self.session.seq())
    }

    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
        snapshot_rows(&self.session, name)
    }

    fn replay(&self, name: &str, from_seq: u64) -> Result<Replay, SourceError> {
        replay(&self.session, name, from_seq)
    }

    fn open_feed(&self, name: &str) -> Result<Box<dyn FeedStream>, SourceError> {
        open_feed(&self.session, name)
    }

    fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
        self.session.session_registry()
    }
}

fn snapshot_rows(session: &ShardedSession, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
    let snap = session.snapshot(name).map_err(source_err)?;
    Ok((snap.seq(), snap.results_sorted()))
}

fn replay(session: &ShardedSession, name: &str, from_seq: u64) -> Result<Replay, SourceError> {
    session
        .replay_since(name, from_seq)
        .map(to_replay)
        .map_err(source_err)
}

fn open_feed(session: &ShardedSession, name: &str) -> Result<Box<dyn FeedStream>, SourceError> {
    let sub = session.subscribe(name).map_err(source_err)?;
    Ok(Box::new(SubscriptionFeed(sub)))
}

/// What a [`ReplicaSource`] is currently fronting: a live follower, or
/// the [`DurableSession`](crate::durable::DurableSession) it promoted
/// into after a leader failover.
enum ServedReplica {
    Following(Arc<crate::replica::ReplicaSession>),
    Promoted(Arc<crate::durable::DurableSession>),
}

/// Serves a [`ReplicaSession`](crate::replica::ReplicaSession): a
/// follower can front the same streaming TCP protocol as its leader,
/// which is how read throughput scales horizontally — point subscribers
/// at replicas, keep the leader for writes. Reads are served at the
/// replica's `applied_seq()` watermark (eventually consistent with the
/// leader; seq stamps stay on the leader's timeline, so a client cursor
/// is portable between leader and replica front ends). Delegates to the
/// replica's *current* backend per call, so a re-bootstrap behind the
/// scenes is picked up transparently. Registration is rejected —
/// replicas are read-only.
///
/// After a failover, [`ReplicaSource::handoff`] swaps the source onto
/// the promoted [`DurableSession`](crate::durable::DurableSession)
/// without restarting the server: client cursors stay valid (promotion
/// continues the same seq timeline), feeds keep flowing from the same
/// backend, and `seq()` starts tracking the new leader's commits
/// instead of the frozen follower watermark.
pub struct ReplicaSource {
    inner: std::sync::RwLock<ServedReplica>,
}

impl ReplicaSource {
    /// Wraps `replica` for serving. Delta retention is governed by the
    /// replica's own `ring_cap` option ([`crate::replica::ReplicaOptions`]).
    pub fn new(replica: Arc<crate::replica::ReplicaSession>) -> ReplicaSource {
        ReplicaSource {
            inner: std::sync::RwLock::new(ServedReplica::Following(replica)),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, ServedReplica> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The wrapped replica, while still following (`None` once
    /// [`ReplicaSource::handoff`] has swapped in a promoted session).
    pub fn replica(&self) -> Option<Arc<crate::replica::ReplicaSession>> {
        match &*self.read() {
            ServedReplica::Following(r) => Some(Arc::clone(r)),
            ServedReplica::Promoted(_) => None,
        }
    }

    /// Swaps the source onto the session this replica promoted into
    /// (see [`ReplicaSession::promote`](crate::replica::ReplicaSession::promote)).
    /// In-flight reads finish against the old arm; every later call
    /// serves from `promoted`. Idempotent in effect — handing off twice
    /// just replaces the session handle.
    pub fn handoff(&self, promoted: Arc<crate::durable::DurableSession>) {
        *self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = ServedReplica::Promoted(promoted);
    }
}

impl ReplicaSource {
    /// The session currently served: the follower's live session, or
    /// the promoted leader's.
    fn served(&self) -> Result<ShardedSession, SourceError> {
        match &*self.read() {
            ServedReplica::Following(r) => r.session().map_err(source_err),
            ServedReplica::Promoted(d) => Ok(d.session().clone()),
        }
    }
}

impl FeedSource for ReplicaSource {
    fn seq(&self) -> u64 {
        match &*self.read() {
            ServedReplica::Following(r) => r.applied_seq(),
            ServedReplica::Promoted(d) => d.seq().unwrap_or(0),
        }
    }

    fn register(&self, _name: &str, _src: &str) -> Result<u64, SourceError> {
        Err(SourceError::Unsupported(
            "replicas are read-only; register on the leader".into(),
        ))
    }

    fn snapshot(&self, name: &str) -> Result<(u64, Vec<Row>), SourceError> {
        snapshot_rows(&self.served()?, name)
    }

    fn replay(&self, name: &str, from_seq: u64) -> Result<Replay, SourceError> {
        replay(&self.served()?, name, from_seq)
    }

    fn open_feed(&self, name: &str) -> Result<Box<dyn FeedStream>, SourceError> {
        open_feed(&self.served()?, name)
    }

    fn registry(&self) -> Option<Arc<cqu_obs::Registry>> {
        match &*self.read() {
            ServedReplica::Following(r) => r.registry().cloned(),
            ServedReplica::Promoted(d) => d.registry(),
        }
    }
}

/// A running server plus its address — the convenience most callers
/// want (see [`cqu_serve::Server`] for the full API).
pub struct ServerHandle {
    server: Server,
}

impl ServerHandle {
    /// Binds a server with default [`ServeConfig`] over any source.
    pub fn bind(
        addr: impl ToSocketAddrs,
        source: Arc<dyn FeedSource>,
    ) -> std::io::Result<ServerHandle> {
        Self::bind_with(addr, source, ServeConfig::default())
    }

    /// Binds with explicit tuning.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        source: Arc<dyn FeedSource>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            server: Server::bind(addr, source, config)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// The metrics registry the server publishes into — the source's
    /// own registry when it has one (so WAL/session/replication series
    /// share the scrape), else a private server-only registry.
    pub fn registry(&self) -> Arc<cqu_obs::Registry> {
        self.server.registry()
    }

    /// Stops the server and joins its threads (also happens on drop).
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.server.fmt(f)
    }
}
