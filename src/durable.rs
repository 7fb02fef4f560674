//! Durable sessions: the WAL-backed deployment of a [`ShardedSession`].
//!
//! A [`DurableSession`] wraps one [`ShardedSession`] in either mode: a
//! sealed multi-shard session ([`DurableSession::create_sharded`]), or
//! the open one-shard form over a single-writer [`Session`] that still
//! accepts registration ([`DurableSession::create`]). Every commit,
//! transaction and checkpoint below takes the same path in both modes;
//! only registration and the logged `Mode` record tell them apart.
//!
//! Every mutation goes through a write-ahead log
//! (`cqu-wal`) with **log-before-publish** discipline: the effective
//! updates of a commit — with their global sequence numbers — are
//! framed, appended, and (per [`FsyncPolicy`]) fsynced *before* the
//! in-memory session publishes epochs or subscriber events. A crash at
//! any instant therefore loses only work that no reader or subscriber
//! could have observed, and [`DurableSession::recover`] rebuilds exactly
//! `timeline[last durable seq]`: the newest valid checkpoint plus a
//! replay of the log tail.
//!
//! ## What is logged
//!
//! * a `Mode` record (single vs sharded) opening every fresh log,
//! * `Register` records — durable DDL; recovery re-registers in log
//!   order, which deterministically reproduces the schema's relation
//!   ids and, for sharded sessions, the shard plan,
//! * one `Update` record per *effective* update (no-ops draw no seq and
//!   take no disk space), stamped with seq and owning shard,
//! * `TxBegin`/`TxCommit` framing around transactions — recovery applies
//!   a transaction's updates only if its commit record hit the disk,
//! * `SeqBurn` compensation for rollbacks: a rolled-back transaction
//!   burns its sequence numbers in memory (inverses draw none), so the
//!   log records the post-burn counter and recovery never reissues a
//!   burned number to a subscriber cursor.
//!
//! ## Seq prediction
//!
//! Plain applies and batches are logged *before* they touch the session,
//! so their seqs are predicted: under the WAL lock (which serializes
//! every durable commit) the session's counter is stable, and
//! effectiveness is decided by a read of the relation plus an overlay
//! for within-batch dependencies — the same set-semantics rule the
//! session itself applies. Transactions cannot be predicted (the
//! closure is opaque), so they dispatch first — uncommitted state is
//! invisible while the writer lock is held — and log inside the commit
//! window, still before any event publishes.
//!
//! Durable writes serialize through the WAL lock even with many shards
//! (one log is one total order); sharding still buys parallel *reads*
//! and feed fan-out. All mutations must go through the
//! `DurableSession` — writing through an escape-hatch handle bypasses
//! the log and forfeits every guarantee here.

use crate::error::CqError;
use crate::session::{
    validate_update, EngineChoice, QueryId, QuerySnapshot, Session, SharedSession,
};
use crate::shard::{ShardedSession, ShardedSessionBuilder, ShardedTransaction};
use cqu_baseline::EngineKind;
use cqu_common::wire::{put_bytes32, put_u16, put_u32, put_u64, Cur, WireError};
use cqu_common::FxHashMap;
use cqu_dynamic::UpdateReport;
use cqu_obs::Registry;
use cqu_query::{RelId, Schema};
use cqu_storage::{Tuple, Update};
use cqu_wal::{epoch, FsDir, FsyncPolicy, Rec, Wal, WalDir, WalError, WalOptions};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Batch size for checkpoint loading and log replay (bounds peak
/// allocation without changing semantics — batches apply in order).
pub(crate) const REPLAY_CHUNK: usize = 16_384;

/// A durable-layer failure.
#[derive(Debug)]
pub enum DurableError {
    /// The in-memory session refused the operation.
    Session(CqError),
    /// The log refused it (I/O, or typed corruption at recovery).
    Wal(WalError),
    /// The on-disk state is internally inconsistent (recovery only):
    /// e.g. a checkpoint whose schema disagrees with the logged
    /// registrations, or malformed transaction framing mid-log.
    Recovery(String),
    /// The operation is not available on this backend.
    Unsupported(&'static str),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Session(e) => write!(f, "{e}"),
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::Recovery(msg) => write!(f, "recovery failed: {msg}"),
            DurableError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<CqError> for DurableError {
    fn from(e: CqError) -> DurableError {
        DurableError::Session(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> DurableError {
        DurableError::Wal(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Wal(WalError::Io(e))
    }
}

/// Tuning for a durable session's log.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When commits fsync (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Metrics registry shared into every layer of the session (WAL,
    /// session, shards). `None` leaves the session uninstrumented —
    /// the record paths then skip metric work entirely.
    pub registry: Option<Arc<Registry>>,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            registry: None,
        }
    }
}

impl DurableOptions {
    fn wal(&self) -> WalOptions {
        WalOptions {
            fsync: self.fsync,
            segment_bytes: self.segment_bytes,
        }
    }
}

/// Log state guarded by one mutex: the writer, the registration list
/// (name, src, encoded choice) that checkpoints serialize, and the
/// attached replication queues.
struct WalState {
    wal: Wal,
    regs: Vec<(String, String, u8)>,
    /// Live replication queues `(follower id, queue)`. Commits push
    /// into every queue under this lock; a queue that reports itself
    /// dead or closed is dropped on the spot.
    sinks: Vec<(u64, Arc<cqu_repl::ShipQueue>)>,
    next_sink: u64,
}

/// A WAL-backed session. See the [module docs](self) for the logging
/// discipline and recovery semantics.
pub struct DurableSession {
    wal: Mutex<WalState>,
    /// Sealed in sharded mode; the open one-shard form in single-writer
    /// mode.
    session: ShardedSession,
    /// Packed [`epoch`] `(term, lifetime)`: the lifetime half is the
    /// startup segment index (strictly increasing across recoveries of
    /// one log), the term half is the leadership term (bumped only by
    /// promotion). Followers resume by cursor only within the epoch
    /// their state was built against; ordering is term-dominant for the
    /// stale-leader fence.
    epoch: u64,
}

impl std::fmt::Debug for DurableSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("sharded", &self.is_sharded())
            .finish_non_exhaustive()
    }
}

fn lock_wal(wal: &Mutex<WalState>) -> Result<std::sync::MutexGuard<'_, WalState>, DurableError> {
    wal.lock()
        .map_err(|_| DurableError::Session(CqError::Poisoned))
}

fn encode_choice(choice: EngineChoice) -> u8 {
    match choice {
        EngineChoice::Auto => 0,
        EngineChoice::Forced(EngineKind::QHierarchical) => 1,
        EngineChoice::Forced(EngineKind::Recompute) => 2,
        EngineChoice::Forced(EngineKind::DeltaIvm) => 3,
        EngineChoice::Forced(EngineKind::SemiJoin) => 4,
    }
}

pub(crate) fn decode_choice(byte: u8) -> Result<EngineChoice, DurableError> {
    Ok(match byte {
        0 => EngineChoice::Auto,
        1 => EngineChoice::Forced(EngineKind::QHierarchical),
        2 => EngineChoice::Forced(EngineKind::Recompute),
        3 => EngineChoice::Forced(EngineKind::DeltaIvm),
        4 => EngineChoice::Forced(EngineKind::SemiJoin),
        b => {
            return Err(DurableError::Recovery(format!(
                "unknown engine choice byte {b}"
            )))
        }
    })
}

/// Builds one `Update` record per entry of `effective`, stamped
/// `seq0+1..` — the commit path appends them to the log and then ships
/// the same values to any attached replication queues.
fn update_recs(seq0: u64, effective: &[Update], shard_of: impl Fn(RelId) -> u16) -> Vec<Rec> {
    effective
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let (insert, rel, tuple) = match u {
                Update::Insert(r, t) => (true, *r, t),
                Update::Delete(r, t) => (false, *r, t),
            };
            Rec::Update {
                seq: seq0 + 1 + i as u64,
                shard: shard_of(rel),
                insert,
                rel: rel.0,
                tuple: tuple.clone(),
            }
        })
        .collect()
}

/// Fans one committed record group out to every attached replication
/// queue: one serialization shared by all followers, and pushes that
/// never block — a queue that overflowed (or whose connection closed)
/// is dropped here, and its follower resumes by cursor on reconnect.
/// Runs after `wal.commit()` succeeds, so followers only ever see
/// records that are durable on the leader.
fn ship(st: &mut WalState, head: u64, recs: &[Rec]) {
    if st.sinks.is_empty() || recs.is_empty() {
        return;
    }
    let frame: Arc<[u8]> = cqu_repl::protocol::encode_records_frame(recs).into();
    st.sinks.retain(|(_, q)| q.push(head, Arc::clone(&frame)));
}

/// Validates `updates` and predicts the effective subset under set
/// semantics: `present` reads the live relation, and an overlay carries
/// within-batch dependencies — exactly the rule the session's dispatch
/// applies, so the predicted seqs match the drawn ones.
fn predict_effective(
    schema: &Schema,
    present: impl Fn(RelId, &[u64]) -> bool,
    updates: &[Update],
) -> Result<Vec<Update>, CqError> {
    let mut overlay: FxHashMap<(u32, Tuple), bool> = FxHashMap::default();
    let mut effective = Vec::new();
    for u in updates {
        validate_update(schema, u)?;
        let (rel, tuple, insert) = match u {
            Update::Insert(r, t) => (*r, t, true),
            Update::Delete(r, t) => (*r, t, false),
        };
        let key = (rel.0, tuple.clone());
        let cur = overlay
            .get(&key)
            .copied()
            .unwrap_or_else(|| present(rel, tuple));
        if insert != cur {
            effective.push(u.clone());
            overlay.insert(key, insert);
        }
    }
    Ok(effective)
}

/// Decoded checkpoint body.
pub(crate) struct CkptBody {
    pub(crate) sharded: bool,
    pub(crate) regs: Vec<(String, String, u8)>,
    /// Per relation (in schema order): declared arity and tuples.
    pub(crate) rels: Vec<(usize, Vec<Tuple>)>,
}

/// Checkpoint body layout (the WAL wraps it in magic + seq + CRC):
///
/// ```text
/// u8 sharded
/// u32 n_regs  { u8 choice, u32 name_len, name, u32 src_len, src }*
/// u32 n_rels  { u16 arity, u64 count, count × arity × u64 }*
/// ```
fn encode_ckpt_body(
    sharded: bool,
    regs: &[(String, String, u8)],
    schema: &Schema,
    mut tuples_of: impl FnMut(RelId) -> Vec<Tuple>,
) -> Vec<u8> {
    let mut out = vec![u8::from(sharded)];
    put_u32(&mut out, regs.len() as u32);
    for (name, src, choice) in regs {
        out.push(*choice);
        put_bytes32(&mut out, name.as_bytes());
        put_bytes32(&mut out, src.as_bytes());
    }
    put_u32(&mut out, schema.len() as u32);
    for rel in schema.relations() {
        let tuples = tuples_of(rel);
        put_u16(&mut out, schema.arity(rel) as u16);
        put_u64(&mut out, tuples.len() as u64);
        for &c in tuples.iter().flatten() {
            put_u64(&mut out, c);
        }
    }
    out
}

/// Decodes a checkpoint body read from disk or received from a leader.
/// Every count is checked against the bytes left before it sizes an
/// allocation, so a short or corrupt body is refused, never trusted.
pub(crate) fn decode_ckpt_body(body: &[u8]) -> Result<CkptBody, DurableError> {
    read_ckpt_body(body).map_err(|e| DurableError::Recovery(format!("checkpoint body: {e}")))
}

fn read_ckpt_body(body: &[u8]) -> Result<CkptBody, WireError> {
    let mut r = Cur::new(body);
    let sharded = r.u8()? != 0;
    // A registration takes at least 9 bytes (choice + two lengths).
    let n_regs = r.u32()?;
    let n_regs = r.count(n_regs.into(), 9)?;
    let mut regs = Vec::with_capacity(n_regs);
    for _ in 0..n_regs {
        let choice = r.u8()?;
        let name = r.str32()?;
        let src = r.str32()?;
        regs.push((name, src, choice));
    }
    // A relation header takes 10 bytes (arity + count).
    let n_rels = r.u32()?;
    let n_rels = r.count(n_rels.into(), 10)?;
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let arity = r.u16()? as usize;
        let count = r.u64()?;
        let count = r.count(count, arity * 8)?;
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            let mut t = Vec::with_capacity(arity);
            for _ in 0..arity {
                t.push(r.u64()?);
            }
            tuples.push(t);
        }
        rels.push((arity, tuples));
    }
    r.finish()?;
    Ok(CkptBody {
        sharded,
        regs,
        rels,
    })
}

impl DurableSession {
    fn assemble(
        wal: Wal,
        regs: Vec<(String, String, u8)>,
        session: ShardedSession,
        epoch: u64,
    ) -> DurableSession {
        DurableSession {
            wal: Mutex::new(WalState {
                wal,
                regs,
                sinks: Vec::new(),
                next_sink: 1,
            }),
            session,
            epoch,
        }
    }

    /// Creates a fresh single-writer durable session over `dir`. Refuses
    /// a directory that already holds a log — use
    /// [`DurableSession::recover`] for that.
    pub fn create(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create_with(dir, opts, false, Vec::new())
    }

    /// Creates a fresh sharded durable session over `dir`, registering
    /// `regs` (name, query source) up front — the sharded plan seals at
    /// build, so the query set arrives here rather than incrementally.
    pub fn create_sharded(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        regs: &[(&str, &str)],
    ) -> Result<DurableSession, DurableError> {
        if regs.is_empty() {
            return Err(DurableError::Unsupported(
                "a sharded session needs at least one query",
            ));
        }
        let regs = regs
            .iter()
            .map(|(name, src)| ((*name).to_string(), (*src).to_string(), 0u8))
            .collect();
        DurableSession::create_with(dir, opts, true, regs)
    }

    /// Builds the session and opens a fresh log holding the `Mode`
    /// record and the registrations.
    fn create_with(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        sharded: bool,
        regs: Vec<(String, String, u8)>,
    ) -> Result<DurableSession, DurableError> {
        ensure_virgin(&*dir)?;
        let session = build_session(sharded, &regs, opts.registry.as_ref())?;
        let mut wal = Wal::new(dir, opts.wal(), 1, 0)?;
        if let Some(r) = &opts.registry {
            wal.attach_registry(Arc::clone(r));
        }
        wal.append(&Rec::Mode { sharded });
        for (name, src, choice) in &regs {
            wal.append(&Rec::Register {
                name: name.clone(),
                src: src.clone(),
                choice: *choice,
            });
        }
        wal.commit()?;
        wal.sync()?;
        Ok(DurableSession::assemble(
            wal,
            regs,
            session,
            epoch::compose(0, 1),
        ))
    }

    /// [`DurableSession::create`] over a filesystem path.
    pub fn create_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create(Box::new(FsDir::open(path.as_ref())?), opts)
    }

    /// [`DurableSession::create_sharded`] over a filesystem path.
    pub fn create_sharded_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
        regs: &[(&str, &str)],
    ) -> Result<DurableSession, DurableError> {
        DurableSession::create_sharded(Box::new(FsDir::open(path.as_ref())?), opts, regs)
    }

    /// Rebuilds a session from `dir`: loads the newest valid checkpoint,
    /// replays the log tail (skipping records the checkpoint already
    /// covers and any uncommitted transaction suffix), repairs a torn
    /// final segment by truncation, and refuses mid-log corruption with
    /// a typed error. The recovered state is exactly
    /// `timeline[last durable seq]`, and the sequence counter resumes
    /// from that seq — subscriber cursors from the previous life stay
    /// meaningful.
    pub fn recover(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        let scan = cqu_wal::recover(&*dir)?;
        let ckpt = match &scan.checkpoint {
            Some((seq, body)) => Some((*seq, decode_ckpt_body(body)?)),
            None => None,
        };
        if ckpt.is_none() && scan.records.is_empty() {
            return Err(DurableError::Recovery(
                "no durable state found in directory".into(),
            ));
        }
        let sharded = match &ckpt {
            Some((_, body)) => body.sharded,
            None => match scan.records.first() {
                Some(Rec::Mode { sharded }) => *sharded,
                _ => {
                    return Err(DurableError::Recovery(
                        "log does not begin with a mode record".into(),
                    ))
                }
            },
        };
        let ckpt_seq = ckpt.as_ref().map_or(0, |(seq, _)| *seq);
        let mut regs: Vec<(String, String, u8)> =
            ckpt.as_ref().map_or_else(Vec::new, |(_, b)| b.regs.clone());

        if sharded {
            // Sharded registrations all precede the first update, so the
            // full set (checkpoint + tail) is known before the sealed
            // plan must be built.
            for rec in &scan.records {
                if let Rec::Register { name, src, choice } = rec {
                    if !regs.iter().any(|(n, _, _)| n == name) {
                        regs.push((name.clone(), src.clone(), *choice));
                    }
                }
            }
        }
        let session = build_session(sharded, &regs, opts.registry.as_ref())?;

        // Load checkpoint tuples, batched per relation.
        if let Some((_, body)) = &ckpt {
            load_ckpt_tuples(&session, body)?;
        }

        // Replay the tail.
        let mut registered: std::collections::HashSet<String> =
            regs.iter().map(|(n, _, _)| n.clone()).collect();
        let mut last_seq = ckpt_seq;
        let mut pending: Vec<Update> = Vec::new();
        let mut tx_buf: Option<Vec<Update>> = None;
        for rec in &scan.records {
            match rec {
                Rec::Mode { sharded: m } => {
                    if *m != sharded {
                        return Err(DurableError::Recovery(
                            "conflicting mode records in log".into(),
                        ));
                    }
                }
                Rec::Register { name, src, choice } => {
                    // A sealed session took every registration up front.
                    let Some(shard) = session.single_shard() else {
                        continue;
                    };
                    if registered.contains(name) {
                        continue;
                    }
                    // Single mode interleaves DDL with updates: flush
                    // what came before so relation ids intern in the
                    // original order.
                    flush_pending(&session, &mut pending)?;
                    shard.register_with(name, src, decode_choice(*choice)?)?;
                    registered.insert(name.clone());
                    regs.push((name.clone(), src.clone(), *choice));
                }
                Rec::Update {
                    seq,
                    insert,
                    rel,
                    tuple,
                    ..
                } => {
                    if *seq <= ckpt_seq {
                        continue; // stale segment the checkpoint covers
                    }
                    let u = if *insert {
                        Update::Insert(RelId(*rel), tuple.clone())
                    } else {
                        Update::Delete(RelId(*rel), tuple.clone())
                    };
                    last_seq = last_seq.max(*seq);
                    match &mut tx_buf {
                        Some(buf) => buf.push(u),
                        None => pending.push(u),
                    }
                }
                Rec::TxBegin { .. } => {
                    if tx_buf.is_some() {
                        return Err(DurableError::Recovery(
                            "transaction begin inside an open transaction".into(),
                        ));
                    }
                    tx_buf = Some(Vec::new());
                }
                Rec::TxCommit { last_seq: ls } => {
                    let Some(buf) = tx_buf.take() else {
                        return Err(DurableError::Recovery(
                            "transaction commit without begin".into(),
                        ));
                    };
                    pending.extend(buf);
                    last_seq = last_seq.max(*ls);
                }
                Rec::SeqBurn { upto } => {
                    if tx_buf.is_some() {
                        return Err(DurableError::Recovery(
                            "seq burn inside an open transaction".into(),
                        ));
                    }
                    last_seq = last_seq.max(*upto);
                }
            }
        }
        // A still-open tx_buf is the uncommitted suffix of the crash —
        // dropped, exactly as it was never visible.
        flush_pending(&session, &mut pending)?;
        session.force_seq(last_seq)?;

        let mut wal = Wal::new(dir, opts.wal(), scan.next_segment, scan.term)?;
        if let Some(r) = &opts.registry {
            wal.attach_registry(Arc::clone(r));
        }
        // The startup segment index is strictly increasing across lives
        // (recovery always opens past every existing segment) — the
        // lifetime half of the epoch. The term half survives restarts
        // untouched: only promotion mints a higher term.
        let epoch = epoch::compose(scan.term, scan.next_segment);
        Ok(DurableSession::assemble(wal, regs, session, epoch))
    }

    /// [`DurableSession::recover`] over a filesystem path.
    pub fn recover_at(
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<DurableSession, DurableError> {
        DurableSession::recover(Box::new(FsDir::open(path.as_ref())?), opts)
    }

    /// Turns a replica's applied state into a fresh durable leader log —
    /// the promotion path behind [`crate::replica::ReplicaSession::promote`].
    ///
    /// The session (already at its applied seq) is checkpointed into a
    /// virgin `dir` via [`Wal::seed`], and the log opens at a leadership
    /// term strictly above the one observed from the old leader:
    /// `epoch = (term(observed) + 1, lifetime 1)`. Every epoch the old
    /// leader can ever present again — including after restarts, which
    /// bump only the lifetime half — orders below this one, so the
    /// fence holds.
    pub(crate) fn promote_from(
        dir: Box<dyn WalDir>,
        opts: DurableOptions,
        session: ShardedSession,
        regs: Vec<(String, String, u8)>,
        observed_epoch: u64,
    ) -> Result<DurableSession, DurableError> {
        ensure_virgin(&*dir)?;
        let (seq, body) = snapshot_ckpt_body(&session, &regs)?;
        let term = epoch::term(observed_epoch) + 1;
        let mut wal = Wal::seed(dir, opts.wal(), 1, term, seq, &body)?;
        if let Some(r) = &opts.registry {
            wal.attach_registry(Arc::clone(r));
            // A single-writer session can adopt the registry after the
            // fact; a sealed one fixes its metrics at build, so the
            // replica must have carried the registry from bootstrap.
            if let Some(s) = session.single_shard() {
                s.write(|s| s.share_registry(Arc::clone(r)))?;
            }
        }
        Ok(DurableSession::assemble(
            wal,
            regs,
            session,
            epoch::compose(term, 1),
        ))
    }

    /// Whether this session wraps a sealed multi-shard
    /// [`ShardedSession`].
    pub fn is_sharded(&self) -> bool {
        self.session.sealed()
    }

    /// The metrics registry this session was built with, if any. All
    /// layers (WAL, session, shards) record into this one registry, so
    /// [`Registry::render`] here is the full picture.
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.session.session_registry()
    }

    /// The wrapped [`SharedSession`] (single-writer mode). Read from it
    /// freely (snapshots, readers, feeds, serving sources); never write
    /// through it — that bypasses the log.
    pub fn shared(&self) -> Option<&SharedSession> {
        self.session.single_shard()
    }

    /// The wrapped [`ShardedSession`] (sharded mode). Same contract as
    /// [`DurableSession::shared`]: reads only.
    pub fn sharded(&self) -> Option<&ShardedSession> {
        self.session.sealed().then_some(&self.session)
    }

    /// The session every read and commit goes through, in either mode.
    pub(crate) fn session(&self) -> &ShardedSession {
        &self.session
    }

    /// The global sequence counter.
    pub fn seq(&self) -> Result<u64, DurableError> {
        Ok(self.session.seq())
    }

    /// Resolves a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelId, DurableError> {
        Ok(self.session.relation(name)?)
    }

    /// Pins a snapshot of `name`'s current result.
    pub fn snapshot(&self, name: &str) -> Result<QuerySnapshot, DurableError> {
        Ok(self.session.snapshot(name)?)
    }

    /// O(1) count of `name`'s current result.
    pub fn count(&self, name: &str) -> Result<u64, DurableError> {
        Ok(self.session.count(name)?)
    }

    /// Registers a query (single-writer mode only — sharded sessions
    /// seal their query set at creation). Logged as durable DDL and
    /// fsynced regardless of policy: registrations are rare and losing
    /// one desynchronizes relation ids for every later update record.
    pub fn register(&self, name: &str, src: &str) -> Result<QueryId, DurableError> {
        self.register_with(name, src, EngineChoice::Auto)
    }

    /// [`DurableSession::register`] with an explicit engine choice.
    pub fn register_with(
        &self,
        name: &str,
        src: &str,
        choice: EngineChoice,
    ) -> Result<QueryId, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let Some(shard) = self.session.single_shard() else {
            return Err(DurableError::Unsupported(
                "sharded sessions register their queries at creation",
            ));
        };
        let id = shard.register_with(name, src, choice)?;
        let byte = encode_choice(choice);
        let rec = Rec::Register {
            name: name.to_string(),
            src: src.to_string(),
            choice: byte,
        };
        st.wal.append(&rec);
        st.wal.commit()?;
        st.wal.sync()?;
        let head = self.session.seq();
        ship(&mut st, head, std::slice::from_ref(&rec));
        st.regs.push((name.to_string(), src.to_string(), byte));
        Ok(id)
    }

    /// Applies one update durably; returns `true` iff it was effective.
    /// Log-before-publish: the record (if effective) is on the log —
    /// synced per policy — before the session observes the change.
    pub fn apply(&self, update: &Update) -> Result<bool, DurableError> {
        Ok(self.apply_batch(std::slice::from_ref(update))?.applied > 0)
    }

    /// Applies a batch durably (equivalent to its members in order).
    /// Only the effective subset is logged; seqs are predicted under the
    /// WAL lock and asserted against the session's own assignment.
    pub fn apply_batch(&self, updates: &[Update]) -> Result<UpdateReport, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let sess = &self.session;
        let effective = sess.read_all(|guards| {
            // Every shard session holds the full union schema.
            predict_effective(
                guards[0].schema(),
                |rel, t| guards[sess.route(rel)].database().relation(rel).contains(t),
                updates,
            )
        })??;
        if effective.is_empty() {
            return Ok(UpdateReport {
                total: updates.len(),
                applied: 0,
            });
        }
        let seq0 = sess.seq();
        let recs = update_recs(seq0, &effective, |rel| sess.route(rel) as u16);
        for rec in &recs {
            st.wal.append(rec);
        }
        st.wal.commit()?;
        ship(st, seq0 + effective.len() as u64, &recs);
        // No reader can interleave observations here: the WAL lock
        // serializes writers, and per-update seq stamps are never
        // observable below event granularity — the log keeps submission
        // order even when a multi-shard batch commits per-shard
        // sub-batches.
        let report = sess.apply_batch(updates)?;
        debug_assert_eq!(report.applied, effective.len());
        debug_assert_eq!(sess.seq(), seq0 + effective.len() as u64);
        Ok(report)
    }

    /// Runs `f` inside a durable all-or-nothing transaction. On `Ok`,
    /// the effective updates are framed `TxBegin … TxCommit`, logged,
    /// and synced per policy *before* the in-memory commit publishes
    /// events; a crash before the commit record lands replays nothing.
    /// On `Err` (or a log failure), the in-memory transaction rolls
    /// back and a `SeqBurn` compensation record keeps the on-disk seq
    /// budget aligned with the burned in-memory numbers.
    ///
    /// A *failed* log commit cannot haunt recovery: the WAL poisons
    /// itself on any mid-commit error and repairs by truncating the
    /// suspect tail — including a fully framed `TxBegin … TxCommit`
    /// that reached the file but whose caller was told `Err` — before
    /// accepting another frame. The `SeqBurn` therefore lands on a
    /// fresh segment after the repair (or not at all if the fault
    /// persists), never behind torn bytes that recovery would truncate.
    pub fn transaction<R>(
        &self,
        f: impl FnOnce(&mut DurableTransaction<'_, '_>) -> Result<R, CqError>,
    ) -> Result<R, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let sess = &self.session;
        let seq0 = sess.seq();
        let mut burn: u64 = 0;
        let res = sess.transaction_generic(|tx| -> Result<R, DurableError> {
            let mut dtx = DurableTransaction {
                inner: tx,
                logged: Vec::new(),
            };
            let res = f(&mut dtx);
            let logged = dtx.logged;
            let n = logged.len() as u64;
            match res {
                Ok(r) => {
                    if n > 0 {
                        // Armed until the log lands: the driver rolls
                        // back on error and the burn record is written
                        // below.
                        burn = n;
                        let mut recs = Vec::with_capacity(logged.len() + 2);
                        recs.push(Rec::TxBegin {
                            first_seq: seq0 + 1,
                        });
                        recs.extend(update_recs(seq0, &logged, |rel| sess.route(rel) as u16));
                        recs.push(Rec::TxCommit { last_seq: seq0 + n });
                        for rec in &recs {
                            st.wal.append(rec);
                        }
                        st.wal.commit()?;
                        burn = 0;
                        ship(st, seq0 + n, &recs);
                    }
                    Ok(r)
                }
                Err(e) => {
                    burn = n;
                    Err(DurableError::Session(e))
                }
            }
        });
        if burn > 0 {
            let rec = Rec::SeqBurn { upto: seq0 + burn };
            st.wal.append(&rec);
            match st.wal.commit() {
                Ok(_) => ship(st, seq0 + burn, std::slice::from_ref(&rec)),
                // A burn that fails to land is a real durability fault —
                // the on-disk counter no longer covers the burned
                // numbers, so a recovery could reissue them to
                // subscriber cursors. Surface it, unless the log already
                // failed: the original error is the better diagnostic.
                Err(we) => {
                    return match res {
                        Err(DurableError::Wal(_)) => res,
                        _ => Err(we.into()),
                    };
                }
            }
        }
        res
    }

    /// Serializes the full database state at the current seq, publishes
    /// it as a checkpoint (temp-file + rename + directory sync), and
    /// prunes every log segment the checkpoint supersedes. Returns the
    /// checkpointed seq.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let st = &mut *st;
        let (seq, body) = snapshot_ckpt_body(&self.session, &st.regs)?;
        st.wal.checkpoint(seq, &body)?;
        Ok(seq)
    }

    /// Forces an fsync of the current log segment — the manual floor
    /// for the lazy policies (`EveryN`/`Interval`/`Never`).
    pub fn sync(&self) -> Result<(), DurableError> {
        let mut st = lock_wal(&self.wal)?;
        st.wal.sync()?;
        Ok(())
    }

    /// This log lifetime's replication epoch. A follower's resume
    /// cursor is only meaningful within the epoch it was built against:
    /// after a leader restart, an un-fsynced suffix may have been
    /// truncated and its seqs reassigned, so followers re-handshake and
    /// the leader re-bootstraps them as needed.
    pub fn replication_epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a replication follower: scans the committed log
    /// (newest checkpoint plus the record tail) and attaches `queue` to
    /// receive every later commit — all under one hold of the WAL lock,
    /// so no commit can fall between the scan and the live stream.
    pub(crate) fn attach_follower(
        &self,
        queue: Arc<cqu_repl::ShipQueue>,
    ) -> Result<cqu_repl::Attach, DurableError> {
        let mut st = lock_wal(&self.wal)?;
        let shipped = st.wal.ship_scan()?;
        // Stable under the WAL lock: every durable writer serializes
        // through it, and seqs only move inside a commit.
        let head_seq = self.session.seq();
        let id = st.next_sink;
        st.next_sink += 1;
        st.sinks.push((id, queue));
        Ok(cqu_repl::Attach {
            id,
            epoch: self.epoch,
            sharded: self.is_sharded(),
            head_seq,
            checkpoint: shipped.checkpoint,
            records: shipped.records,
        })
    }

    /// Unregisters a departed follower's queue (idempotent).
    pub(crate) fn detach_follower(&self, id: u64) {
        if let Ok(mut st) = lock_wal(&self.wal) {
            st.sinks.retain(|(sid, _)| *sid != id);
        }
    }
}

/// Serializes the session's full state at its current seq into a
/// checkpoint body — shared by [`DurableSession::checkpoint`] and the
/// promotion seeding path. The caller must hold whatever lock makes the
/// seq stable (the WAL lock for a live leader; a stopped follower for
/// promotion).
pub(crate) fn snapshot_ckpt_body(
    session: &ShardedSession,
    regs: &[(String, String, u8)],
) -> Result<(u64, Vec<u8>), DurableError> {
    Ok(session.read_all(|guards| {
        let body = encode_ckpt_body(session.sealed(), regs, guards[0].schema(), |rel| {
            guards[session.route(rel)].database().relation(rel).sorted()
        });
        (session.seq(), body)
    })?)
}

fn ensure_virgin(dir: &dyn WalDir) -> Result<(), DurableError> {
    let has_log = dir
        .list()?
        .iter()
        .any(|f| f.starts_with("wal-") || f.starts_with("ckpt"));
    if has_log {
        return Err(DurableError::Unsupported(
            "directory already holds a log — use DurableSession::recover",
        ));
    }
    Ok(())
}

/// Builds a fresh session from a registration list — shared by creation,
/// recovery and replica bootstrap, which must reproduce relation ids by
/// re-registering in the original order. Sharded mode seals the list
/// into a shard plan; single-writer mode opens the one-shard form.
pub(crate) fn build_session(
    sharded: bool,
    regs: &[(String, String, u8)],
    registry: Option<&Arc<Registry>>,
) -> Result<ShardedSession, DurableError> {
    if sharded {
        let mut builder = ShardedSessionBuilder::new();
        for (name, src, choice) in regs {
            builder.register_with(name, src, decode_choice(*choice)?)?;
        }
        if let Some(r) = registry {
            builder.share_registry(Arc::clone(r));
        }
        Ok(builder.build()?)
    } else {
        let mut session = Session::new();
        if let Some(r) = registry {
            session.share_registry(Arc::clone(r));
        }
        for (name, src, choice) in regs {
            session.register_with(name, src, decode_choice(*choice)?)?;
        }
        Ok(ShardedSession::single(SharedSession::new(session))?)
    }
}

/// Loads a decoded checkpoint body's tuples into a freshly built
/// session, batched per relation, with schema/arity cross-checks.
pub(crate) fn load_ckpt_tuples(
    session: &ShardedSession,
    body: &CkptBody,
) -> Result<(), DurableError> {
    let schema = session.read_all(|guards| guards[0].schema().clone())?;
    if body.rels.len() != schema.len() {
        return Err(DurableError::Recovery(format!(
            "checkpoint has {} relations, schema has {}",
            body.rels.len(),
            schema.len()
        )));
    }
    for (idx, (arity, tuples)) in body.rels.iter().enumerate() {
        let rel = RelId(idx as u32);
        if *arity != schema.arity(rel) {
            return Err(DurableError::Recovery(format!(
                "checkpoint arity mismatch on relation {idx}"
            )));
        }
        for chunk in tuples.chunks(REPLAY_CHUNK) {
            let batch: Vec<Update> = chunk
                .iter()
                .map(|t| Update::Insert(rel, t.clone()))
                .collect();
            replay_batch(session, &batch)?;
        }
    }
    Ok(())
}

pub(crate) fn replay_batch(session: &ShardedSession, batch: &[Update]) -> Result<(), DurableError> {
    session
        .apply_batch(batch)
        .map_err(|e| DurableError::Recovery(format!("log replay failed: {e}")))?;
    Ok(())
}

pub(crate) fn flush_pending(
    session: &ShardedSession,
    pending: &mut Vec<Update>,
) -> Result<(), DurableError> {
    for chunk in pending.chunks(REPLAY_CHUNK) {
        replay_batch(session, chunk)?;
    }
    pending.clear();
    Ok(())
}

/// The handle a durable transaction closure writes through: forwards to
/// the session transaction and records each effective update so the
/// commit hook can frame and log them.
pub struct DurableTransaction<'a, 'b> {
    inner: &'b mut ShardedTransaction<'a>,
    logged: Vec<Update>,
}

impl DurableTransaction<'_, '_> {
    /// Validates and applies one update inside the transaction; returns
    /// `true` iff it was effective. Errors leave the transaction open.
    pub fn apply(&mut self, update: &Update) -> Result<bool, CqError> {
        let changed = self.inner.apply(update)?;
        if changed {
            self.logged.push(update.clone());
        }
        Ok(changed)
    }

    /// Applies a batch; returns how many members were effective.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, CqError> {
        let mut applied = 0;
        for u in updates {
            if self.apply(u)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Effective updates so far across the whole transaction.
    pub fn effective_len(&self) -> usize {
        self.logged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A body with no registrations and one relation of `arity`
    /// claiming `count` tuples, followed by `payload`.
    fn one_relation_body(arity: u16, count: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = vec![0, 0, 0, 0, 0, 1, 0, 0, 0];
        put_u16(&mut body, arity);
        put_u64(&mut body, count);
        body.extend_from_slice(payload);
        body
    }

    #[test]
    fn short_checkpoint_bodies_are_refused_before_allocating() {
        // A tuple count past the body: once a capacity-overflow panic.
        let body = one_relation_body(1, u64::MAX, &[7, 0, 0, 0]);
        assert_eq!(body.len(), 23);
        assert!(decode_ckpt_body(&body).is_err());
        // Zero-arity tuples occupy no bytes: once 2^27 empty tuples.
        let body = one_relation_body(0, 1 << 27, &[]);
        assert_eq!(body.len(), 19);
        assert!(decode_ckpt_body(&body).is_err());
        // A nullary relation that holds, and a one-tuple relation.
        let ckpt = decode_ckpt_body(&one_relation_body(0, 1, &[])).unwrap();
        assert_eq!(ckpt.rels, vec![(0, vec![vec![]])]);
        let ckpt = decode_ckpt_body(&one_relation_body(1, 1, &[7, 0, 0, 0, 0, 0, 0, 0])).unwrap();
        assert_eq!(ckpt.rels, vec![(1, vec![vec![7]])]);
    }
}
