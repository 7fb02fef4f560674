//! The leader runtime: acceptor, per-follower handshake (resume or
//! bootstrap), and the ship pump.
//!
//! # Architecture
//!
//! ```text
//!                   ┌──────────────────────────────┐
//!  commits ─────────▶ ReplSource (durable session)  │ one encode per commit
//!                   └──────┬───────────────────────┘
//!                          │ attach(): checkpoint + tail + queue,
//!                          │ spliced under the leader's commit lock
//!                   ┌──────▼──────┐          ┌─────────────┐
//!                   │ ShipQueue A  │          │ ShipQueue B  │   (bounded bytes)
//!                   └──────┬──────┘          └──────┬──────┘
//!                     pump thread               pump thread
//!                          ▼                        ▼
//!                      follower A               follower B
//! ```
//!
//! Each follower connection runs two threads: a **pump** draining the
//! follower's [`ShipQueue`] onto the socket (heartbeating when idle)
//! and an **ack reader** tracking the follower's applied cursor. The
//! handshake decides resume vs. bootstrap:
//!
//! * **resume** — the follower's `(epoch, cursor)` matches this log
//!   lifetime and its cursor is still at or above the shipping floor
//!   (the newest checkpoint seq): only records past the cursor are
//!   sent. A follower of a *previous* epoch never resumes, even at a
//!   plausible cursor — the old leader may have lost an un-fsynced
//!   suffix whose seqs this lifetime reassigned to different updates.
//! * **bootstrap** — anything else: the checkpoint body is transferred
//!   in bounded chunks (or, when no checkpoint exists, the log is
//!   shipped from seq 0) and the tail follows.
//!
//! The splice between catch-up and live stream is exact because
//! [`ReplSource::attach`] registers the queue and scans the log under
//! one commit-lock hold: every commit is either in the scan or in the
//! queue, never neither, and the follower's monotone seq filter
//! deduplicates any overlap.

use crate::protocol::{encode_records_frame, read_frame, DenyReason, Frame, REPL_VERSION};
use crate::queue::{ShipPop, ShipQueue};
use cqu_common::lock;
use cqu_common::net::{ServerOptions, TcpServer, TICK};
use cqu_obs::{Counter, Gauge, Registry};
use cqu_wal::Rec;
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Records per catch-up `Records` frame (bounds the frame size without
/// re-measuring byte-exact budgets; update records are small).
const CATCHUP_RECORDS_PER_FRAME: usize = 1024;

/// Everything a follower needs to start, captured atomically under the
/// leader's commit lock by [`ReplSource::attach`].
#[derive(Debug)]
pub struct Attach {
    /// Handle for [`ReplSource::detach`].
    pub id: u64,
    /// The leader's current epoch (one log lifetime).
    pub epoch: u64,
    /// Whether the leader session is sharded.
    pub sharded: bool,
    /// The committed head seq at attach time.
    pub head_seq: u64,
    /// The newest durable checkpoint, if any: `(seq, body)`.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Every committed record after the checkpoint (plus any stale
    /// pre-checkpoint stragglers, which the seq filter drops).
    pub records: Vec<Rec>,
}

/// The leader-side contract: the durable session implements it; unit
/// tests script it by hand.
pub trait ReplSource: Send + Sync + 'static {
    /// Atomically scans the committed log and registers `queue` to
    /// receive every later commit — under one commit-lock hold, so no
    /// commit falls between the scan and the live stream.
    fn attach(&self, queue: Arc<ShipQueue>) -> Result<Attach, String>;

    /// Unregisters the queue of a departed follower.
    fn detach(&self, id: u64);
}

/// Leader tuning knobs.
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// How long a fresh connection gets to complete the handshake.
    pub handshake_timeout: Duration,
    /// Idle interval between `Heartbeat` frames.
    pub heartbeat: Duration,
    /// Per-follower ship-queue byte budget; overflow disconnects the
    /// follower (it resumes from its cursor).
    pub queue_bytes: usize,
    /// Byte budget per `CkptChunk` frame during bootstrap.
    pub ckpt_chunk_bytes: usize,
    /// Maximum concurrently attached followers; further handshakes are
    /// denied.
    pub max_followers: usize,
    /// Metrics registry the leader publishes `repl_leader_*` series
    /// (including the per-follower `repl_leader_ack_lag` gauge) and
    /// journal events into. `None` keeps only the built-in
    /// [`LeaderStats`] counters.
    pub registry: Option<Arc<Registry>>,
}

impl Default for LeaderConfig {
    fn default() -> LeaderConfig {
        LeaderConfig {
            handshake_timeout: Duration::from_secs(10),
            heartbeat: Duration::from_millis(500),
            queue_bytes: 64 << 20,
            ckpt_chunk_bytes: 1 << 20,
            max_followers: 64,
            registry: None,
        }
    }
}

/// A point-in-time copy of the leader's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaderStats {
    /// Followers currently attached.
    pub followers: u64,
    /// Handshakes accepted over the server's lifetime.
    pub accepted: u64,
    /// Handshakes satisfied by cursor resume.
    pub resumes: u64,
    /// Handshakes that required a bootstrap (checkpoint transfer or
    /// full log stream).
    pub bootstraps: u64,
    /// Follower connections torn down (socket loss, queue overflow,
    /// shutdown).
    pub disconnects: u64,
    /// `Ack` frames received from followers.
    pub acks: u64,
    /// Handshakes denied because the peer's epoch was ahead of this
    /// leader's — a deposed leader being knocked by fenced followers.
    pub denied_stale: u64,
    /// Followers dropped because their ship queue overflowed its byte
    /// budget (they reconnect and resume from their durable cursor).
    pub queue_overflows: u64,
}

/// One attached follower's progress, as seen from the leader — the raw
/// material for failover candidate selection and lag observability.
#[derive(Debug, Clone)]
pub struct FollowerProgress {
    /// The attach id (stable for the connection's lifetime).
    pub id: u64,
    /// The follower's socket address.
    pub addr: SocketAddr,
    /// The epoch the follower is synced to — the leader's epoch at
    /// handshake, since every accepted follower (resumed or
    /// bootstrapped) lands on the current epoch.
    pub epoch: u64,
    /// The last applied seq the follower acked (starts at its resume
    /// cursor, or the bootstrap floor).
    pub acked_seq: u64,
    /// When the follower last acked.
    pub last_seen: Instant,
    /// How long the follower has been silent — the leader-side liveness
    /// signal, symmetric to the follower's `dead_after`.
    pub silent_for: Duration,
}

struct ProgressEntry {
    id: u64,
    addr: SocketAddr,
    epoch: u64,
    acked_seq: u64,
    last_seen: Instant,
}

/// Registry handles for the leader's `repl_leader_*` series, resolved
/// once at bind. [`LeaderStats`] is a typed view over these handles.
struct LeaderMetrics {
    registry: Option<Arc<Registry>>,
    /// Followers currently attached (gauge, not a lifetime counter).
    followers: Arc<Gauge>,
    accepted: Arc<Counter>,
    resumes: Arc<Counter>,
    bootstraps: Arc<Counter>,
    disconnects: Arc<Counter>,
    acks: Arc<Counter>,
    denied_stale: Arc<Counter>,
    queue_overflows: Arc<Counter>,
}

impl LeaderMetrics {
    fn new(registry: Option<Arc<Registry>>) -> LeaderMetrics {
        // Without a registry the handles live in a private one — same
        // code paths, just not rendered anywhere.
        let r = registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::with_journal_capacity(0)));
        LeaderMetrics {
            followers: r.gauge("repl_leader_followers"),
            accepted: r.counter("repl_leader_accepted_total"),
            resumes: r.counter("repl_leader_resumes_total"),
            bootstraps: r.counter("repl_leader_bootstraps_total"),
            disconnects: r.counter("repl_leader_disconnects_total"),
            acks: r.counter("repl_leader_acks_total"),
            denied_stale: r.counter("repl_leader_denied_stale_total"),
            queue_overflows: r.counter("repl_leader_queue_overflows_total"),
            registry,
        }
    }

    /// Journals a structural event if a registry was supplied.
    fn journal(&self, kind: &'static str, detail: String) {
        if let Some(r) = &self.registry {
            r.journal().record(kind, detail);
        }
    }

    /// The per-follower ack-lag gauge, labelled by attach id. Lives
    /// only while the follower is attached ([`AttachGuard`] removes it
    /// on detach, so a departed follower's last lag can't linger as a
    /// stale series).
    fn ack_lag(&self, id: u64) -> Option<Arc<Gauge>> {
        self.registry
            .as_ref()
            .map(|r| r.gauge_with("repl_leader_ack_lag", &[("follower", &id.to_string())]))
    }

    fn drop_ack_lag(&self, id: u64) {
        if let Some(r) = &self.registry {
            r.remove("repl_leader_ack_lag", &[("follower", &id.to_string())]);
        }
    }
}

struct Shared {
    source: Arc<dyn ReplSource>,
    config: LeaderConfig,
    stats: LeaderMetrics,
    progress: Mutex<Vec<ProgressEntry>>,
}

/// The replication leader server (see the module docs).
///
/// Dropping the server shuts it down: the acceptor stops, every
/// follower connection is torn down, and all threads are joined.
pub struct LeaderServer {
    shared: Arc<Shared>,
    net: TcpServer,
}

impl LeaderServer {
    /// Binds and starts shipping `source`'s log on `addr` (use port 0
    /// to let the OS pick; read it back with
    /// [`LeaderServer::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        source: Arc<dyn ReplSource>,
        config: LeaderConfig,
    ) -> io::Result<LeaderServer> {
        let opts = ServerOptions {
            name: "cqu-repl",
            handshake_timeout: config.handshake_timeout,
            max_conns: None,
        };
        let shared = Arc::new(Shared {
            source,
            stats: LeaderMetrics::new(config.registry.clone()),
            config,
            progress: Mutex::new(Vec::new()),
        });
        let net = {
            let shared = Arc::clone(&shared);
            TcpServer::bind(addr, opts, move |stream| follower_conn(&shared, stream))?
        };
        Ok(LeaderServer { shared, net })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// A point-in-time copy of the leader counters — a typed view over
    /// the registry handles. Advisory across fields (each is its own
    /// relaxed load), exact per counter.
    pub fn stats(&self) -> LeaderStats {
        let c = &self.shared.stats;
        LeaderStats {
            followers: c.followers.get(),
            accepted: c.accepted.get(),
            resumes: c.resumes.get(),
            bootstraps: c.bootstraps.get(),
            disconnects: c.disconnects.get(),
            acks: c.acks.get(),
            denied_stale: c.denied_stale.get(),
            queue_overflows: c.queue_overflows.get(),
        }
    }

    /// A snapshot of every attached follower's progress, sorted by
    /// attach id. `silent_for` measures heartbeat/ack silence — the
    /// leader-side liveness view (a candidate selector skips followers
    /// silent past its deadline).
    pub fn followers(&self) -> Vec<FollowerProgress> {
        let now = Instant::now();
        let mut out: Vec<FollowerProgress> = lock(&self.shared.progress)
            .iter()
            .map(|e| FollowerProgress {
                id: e.id,
                addr: e.addr,
                epoch: e.epoch,
                acked_seq: e.acked_seq,
                last_seen: e.last_seen,
                silent_for: now.saturating_duration_since(e.last_seen),
            })
            .collect();
        out.sort_by_key(|p| p.id);
        out
    }

    /// Stops accepting, tears down every follower connection, and joins
    /// all server threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.net.shutdown();
    }
}

impl std::fmt::Debug for LeaderServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderServer")
            .field("addr", &self.local_addr())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Keeps the records a resuming follower still needs: everything above
/// `cursor`, with transaction groups kept or dropped whole (by their
/// commit seq) and registrations/mode always kept — the follower
/// deduplicates those by name. A dangling `TxBegin …` group (no commit
/// record) is dropped, mirroring recovery.
fn filter_tail(records: Vec<Rec>, cursor: u64) -> Vec<Rec> {
    let mut out = Vec::new();
    let mut group: Option<Vec<Rec>> = None;
    for rec in records {
        match &rec {
            Rec::TxBegin { .. } => {
                group = Some(vec![rec]);
            }
            Rec::TxCommit { last_seq } => {
                if let Some(mut g) = group.take() {
                    if *last_seq > cursor {
                        g.push(rec);
                        out.append(&mut g);
                    }
                }
            }
            Rec::Update { seq, .. } => match &mut group {
                Some(g) => g.push(rec),
                None => {
                    if *seq > cursor {
                        out.push(rec);
                    }
                }
            },
            Rec::SeqBurn { upto } => {
                if *upto > cursor {
                    out.push(rec);
                }
            }
            Rec::Mode { .. } | Rec::Register { .. } => out.push(rec),
        }
    }
    out
}

/// Guards the follower count and source registration so every exit path
/// of [`follower_conn`] detaches exactly once.
struct AttachGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for AttachGuard<'_> {
    fn drop(&mut self) {
        self.shared.source.detach(self.id);
        lock(&self.shared.progress).retain(|e| e.id != self.id);
        self.shared.stats.followers.sub(1);
        self.shared.stats.disconnects.inc();
        // Retire the per-follower lag series with the follower, so a
        // scrape never reports the frozen lag of a dead connection.
        self.shared.stats.drop_ack_lag(self.id);
    }
}

/// Refuses a handshake; the connection closes after this frame.
fn deny(mut stream: &TcpStream, reason: DenyReason, msg: String) {
    let _ = stream.write_all(&Frame::Deny { reason, msg }.encode());
}

/// One follower connection, handshake (under the runtime's deadline)
/// through disconnect.
fn follower_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut w = BufWriter::new(&stream);

    // Handshake.
    let hello = match read_frame(&mut reader) {
        Ok(Frame::Hello {
            version,
            epoch,
            cursor,
        }) if version == REPL_VERSION => (epoch, cursor),
        Ok(Frame::Hello { version, .. }) => {
            deny(
                &stream,
                DenyReason::Version,
                format!("replication protocol version {version} not supported"),
            );
            return;
        }
        _ => return,
    };
    if shared.stats.followers.get() >= shared.config.max_followers as u64 {
        deny(
            &stream,
            DenyReason::AtCapacity,
            "leader at follower capacity".into(),
        );
        return;
    }

    // Attach: checkpoint + tail + live queue, one atomic splice.
    let queue = ShipQueue::new(shared.config.queue_bytes);
    let attach = match shared.source.attach(Arc::clone(&queue)) {
        Ok(a) => a,
        Err(msg) => {
            deny(&stream, DenyReason::Other, msg);
            return;
        }
    };

    let floor = attach.checkpoint.as_ref().map_or(0, |(seq, _)| *seq);
    let (hello_epoch, hello_cursor) = hello;

    // Epoch fence: a peer greeting from a *higher* epoch has applied
    // records this leader never shipped — this node is deposed (or the
    // cluster moved on without it). Serving the peer a reset would roll
    // it back behind the true leader; refuse instead, permanently.
    if hello_epoch > attach.epoch {
        shared.source.detach(attach.id);
        shared.stats.denied_stale.inc();
        shared.stats.journal(
            "leader_fence",
            format!(
                "denied peer at epoch {hello_epoch}: ahead of leader epoch {}",
                attach.epoch
            ),
        );
        deny(
            &stream,
            DenyReason::StaleEpoch,
            format!(
                "peer epoch {hello_epoch} is ahead of leader epoch {} — stale leader",
                attach.epoch
            ),
        );
        return;
    }

    queue.seed_head(attach.head_seq);
    shared.stats.followers.add(1);
    shared.stats.accepted.inc();
    let guard = AttachGuard {
        shared,
        id: attach.id,
    };
    let resume =
        hello_epoch == attach.epoch && hello_cursor >= floor && hello_cursor <= attach.head_seq;
    let cursor = if resume { hello_cursor } else { floor };
    let send_ckpt = !resume && attach.checkpoint.is_some();
    if resume {
        shared.stats.resumes.inc();
    } else {
        shared.stats.bootstraps.inc();
    }
    shared.stats.journal(
        "leader_attach",
        format!(
            "follower {} {} at cursor {cursor} (head {})",
            attach.id,
            if resume { "resumed" } else { "bootstrapped" },
            attach.head_seq
        ),
    );
    // Per-follower lag series, seeded with the catch-up distance; the
    // ack reader keeps it current and AttachGuard retires it.
    let lag_gauge = shared.stats.ack_lag(attach.id);
    if let Some(g) = &lag_gauge {
        g.set(attach.head_seq.saturating_sub(cursor));
    }
    if let Ok(addr) = stream.peer_addr() {
        // Record the leader's epoch, not the greeted one: the handshake
        // lands every accepted follower on the current epoch, and
        // candidate selection must not let a resumed follower's old
        // greeting outrank a fresh bootstrap that is further ahead.
        lock(&shared.progress).push(ProgressEntry {
            id: attach.id,
            addr,
            epoch: attach.epoch,
            acked_seq: cursor,
            last_seen: Instant::now(),
        });
    }

    let welcome = Frame::Welcome {
        epoch: attach.epoch,
        head_seq: attach.head_seq,
        sharded: attach.sharded,
        reset: !resume,
        ckpt: send_ckpt,
    };
    if w.write_all(&welcome.encode()).is_err() {
        return; // guard detaches
    }

    // Bootstrap: the checkpoint body, in bounded chunks.
    if send_ckpt {
        let (seq, body) = attach.checkpoint.as_ref().expect("send_ckpt checked");
        let chunk = shared.config.ckpt_chunk_bytes.max(1);
        let mut start = 0;
        loop {
            let end = (start + chunk).min(body.len());
            let frame = Frame::CkptChunk {
                seq: *seq,
                first: start == 0,
                last: end == body.len(),
                bytes: body[start..end].to_vec(),
            };
            if w.write_all(&frame.encode()).is_err() {
                return;
            }
            if end == body.len() {
                break;
            }
            start = end;
        }
    }

    // Catch-up: the committed tail past the cursor, batched.
    let tail = filter_tail(attach.records, cursor);
    for chunk in tail.chunks(CATCHUP_RECORDS_PER_FRAME) {
        if w.write_all(&encode_records_frame(chunk)).is_err() {
            return;
        }
    }
    if w.flush().is_err() {
        return;
    }

    // Ack reader: records follower progress; its exit (EOF, socket
    // loss) tells the pump the follower is gone.
    let conn_gone = Arc::new(AtomicBool::new(false));
    let ack_thread = {
        let gone = Arc::clone(&conn_gone);
        let shared = Arc::clone(shared);
        let follower_id = attach.id;
        let queue = Arc::clone(&queue);
        let lag_gauge = lag_gauge.clone();
        let mut reader = reader;
        std::thread::Builder::new()
            .name("cqu-repl-ack".into())
            .spawn(move || {
                let _ = reader.set_read_timeout(None);
                while let Ok(Frame::Ack { applied_seq }) = read_frame(&mut reader) {
                    shared.stats.acks.inc();
                    if let Some(g) = &lag_gauge {
                        g.set(queue.head().saturating_sub(applied_seq));
                    }
                    let mut progress = lock(&shared.progress);
                    if let Some(e) = progress.iter_mut().find(|e| e.id == follower_id) {
                        // Acks can only move forward; a reordered read
                        // must not roll the snapshot back.
                        e.acked_seq = e.acked_seq.max(applied_seq);
                        e.last_seen = Instant::now();
                    }
                }
                gone.store(true, Ordering::SeqCst);
            })
    };

    // Pump: drain the live queue; heartbeat when idle.
    let mut last_beat = Instant::now();
    loop {
        // Shutdown cuts the socket, which ends the ack reader too.
        if conn_gone.load(Ordering::SeqCst) {
            break;
        }
        match queue.pop(TICK) {
            ShipPop::Frame(bytes) => {
                if w.write_all(&bytes).is_err() || w.flush().is_err() {
                    break;
                }
                last_beat = Instant::now();
            }
            ShipPop::Empty => {
                if last_beat.elapsed() >= shared.config.heartbeat {
                    let beat = Frame::Heartbeat {
                        head_seq: queue.head(),
                    };
                    if w.write_all(&beat.encode()).is_err() || w.flush().is_err() {
                        break;
                    }
                    last_beat = Instant::now();
                }
            }
            // Overflow: drop the follower; it reconnects and resumes
            // from its durable cursor.
            ShipPop::Dead => {
                shared.stats.queue_overflows.inc();
                shared.stats.journal(
                    "leader_lag_disconnect",
                    format!(
                        "follower {} dropped: ship queue overflowed {} bytes",
                        attach.id, shared.config.queue_bytes
                    ),
                );
                break;
            }
            ShipPop::Closed => break,
        }
    }
    queue.close();
    let _ = stream.shutdown(Shutdown::Both);
    if let Ok(handle) = ack_thread {
        let _ = handle.join();
    }
    drop(guard);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(seq: u64) -> Rec {
        Rec::Update {
            seq,
            shard: 0,
            insert: true,
            rel: 0,
            tuple: vec![seq],
        }
    }

    #[test]
    fn filter_tail_drops_covered_records_but_keeps_ddl() {
        let recs = vec![
            Rec::Mode { sharded: false },
            Rec::Register {
                name: "q".into(),
                src: "Q(x) :- E(x, y).".into(),
                choice: 0,
            },
            upd(1),
            upd(2),
            Rec::SeqBurn { upto: 3 },
            upd(4),
        ];
        let out = filter_tail(recs, 3);
        assert_eq!(
            out,
            vec![
                Rec::Mode { sharded: false },
                Rec::Register {
                    name: "q".into(),
                    src: "Q(x) :- E(x, y).".into(),
                    choice: 0,
                },
                upd(4),
            ]
        );
    }

    #[test]
    fn filter_tail_keeps_or_drops_tx_groups_whole() {
        let recs = vec![
            Rec::TxBegin { first_seq: 1 },
            upd(1),
            upd(2),
            Rec::TxCommit { last_seq: 2 },
            Rec::TxBegin { first_seq: 3 },
            upd(3),
            Rec::TxCommit { last_seq: 3 },
        ];
        // Cursor 2: the first group is fully covered, the second ships.
        let out = filter_tail(recs.clone(), 2);
        assert_eq!(
            out,
            vec![
                Rec::TxBegin { first_seq: 3 },
                upd(3),
                Rec::TxCommit { last_seq: 3 },
            ]
        );
        // Cursor 1 (mid-group): groups are atomic — the whole first
        // group ships again; the follower skips it by seq per update.
        let out = filter_tail(recs, 1);
        assert_eq!(out.len(), 7);
        // A dangling group is dropped.
        let out = filter_tail(vec![upd(1), Rec::TxBegin { first_seq: 2 }, upd(2)], 0);
        assert_eq!(out, vec![upd(1)]);
    }
}
